package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"fasttrack/internal/sim"
	"fasttrack/trace"
)

// workers is the goroutine count of both target programs, fixed (not
// runtime.NumCPU) so a seed yields the same event stream on any host.
const workers = 2

// input is one generated target input and the output the target must
// produce from it.
type input struct {
	data []byte
	// digest is the exact digest line the target must print.
	digest uint64
	// checksums lists the acceptable checksum values: the run-kernel
	// checksum is racy by design, so any worker's partial sum is valid.
	checksums []uint64
}

func words(ws []uint32) []byte {
	b := make([]byte, 4*len(ws))
	for i, w := range ws {
		binary.LittleEndian.PutUint32(b[4*i:], w)
	}
	return b
}

// kernelInput generates the run-kernel input: a 4096-entry shared table
// and a key stream of keys entries, and mirrors the target's computation
// to produce the expected result.
func kernelInput(seed int64, keys int) input {
	const tableLen = 4096
	r := rand.New(rand.NewSource(seed))
	ws := []uint32{workers, tableLen, uint32(keys)}
	for i := 0; i < tableLen+keys; i++ {
		ws = append(ws, r.Uint32())
	}
	table, stream := ws[3:3+tableLen], ws[3+tableLen:]
	in := input{data: words(ws)}
	for i, k := range stream {
		in.digest = in.digest*1099511628211 ^ kernelSlot(table, k, i)
	}
	for w := 0; w < workers; w++ {
		var sum uint64
		for i := w * keys / workers; i < (w+1)*keys/workers; i++ {
			sum += kernelSlot(table, stream[i], i)
		}
		in.checksums = append(in.checksums, sum)
	}
	return in
}

// kernelSlot is the value the kernel target stores in output slot i.
func kernelSlot(table []uint32, key uint32, i int) uint64 {
	return uint64(table[key%uint32(len(table))])*2654435761 + uint64(i)
}

// pipelineInput generates the run-pipeline input: txs transactions over
// 64 accounts, each an (account, amount) pair.
func pipelineInput(seed int64, txs int) input {
	const accounts = 64
	r := rand.New(rand.NewSource(seed))
	ws := []uint32{workers, accounts, uint32(txs)}
	balance := make([]uint64, accounts)
	var total uint64
	for i := 0; i < txs; i++ {
		a, amt := r.Uint32(), r.Uint32()%1000
		ws = append(ws, a, amt)
		balance[a%accounts] += uint64(amt)
		total += uint64(amt)
	}
	in := input{data: words(ws), checksums: []uint64{total}}
	for _, b := range balance {
		in.digest = in.digest*1099511628211 ^ b
	}
	return in
}

// check verifies the target's output file against the expected result.
func (in input) check(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("target output: %w", err)
	}
	var digest, checksum uint64
	if _, err := fmt.Sscanf(string(data), "digest %d\nchecksum %d\n", &digest, &checksum); err != nil {
		return fmt.Errorf("target output %q: %w", strings.TrimSpace(string(data)), err)
	}
	if digest != in.digest {
		return fmt.Errorf("target digest %d, want %d", digest, in.digest)
	}
	for _, c := range in.checksums {
		if c == checksum {
			return nil
		}
	}
	return fmt.Errorf("target checksum %d, want one of %v", checksum, in.checksums)
}

// streamProfiles are the internal/sim profiles daemon-stream rotates
// through: eclipse-startup (24 threads, read-shared data and locks), jbb
// (lock and wait/notify heavy) and crypt (a large thread-local working
// set). At their default scale one session takes about a tenth of a
// second, so a run of a few seconds yields well over a hundred sessions:
// ten or more beyond the p90.
var streamProfiles = []string{"eclipse-startup", "jbb", "crypt"}

// sessionTrace is one trace of the daemon-stream rotation.
type sessionTrace struct {
	name string
	tr   trace.Trace
}

// rotation generates the daemon-stream traces: the profiles in a
// seed-drawn order, each generated from a seed-drawn generation seed,
// with every repetition count multiplied by size.
func rotation(seed int64, size float64) ([]sessionTrace, error) {
	r := rand.New(rand.NewSource(seed))
	var out []sessionTrace
	for _, i := range r.Perm(len(streamProfiles)) {
		name := streamProfiles[i]
		b, ok := sim.ByName(name)
		if !ok {
			return nil, fmt.Errorf("internal/sim has no profile %q", name)
		}
		genSeed := r.Int63()
		out = append(out, sessionTrace{
			name: name + "/" + strconv.FormatInt(genSeed, 10),
			tr:   b.Profile.Generate(genSeed, size),
		})
	}
	return out, nil
}
