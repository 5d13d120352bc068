// Command kernel is the run-kernel benchmark target: an access-dominated
// program whose event stream is almost entirely reads and writes.
//
// It reads the input file named by PERFBENCH_INPUT: little-endian uint32
// words [workers, tableLen, keyLen, table..., keys...]. Each worker sweeps
// its contiguous share of the key stream, reads table[key] from the table
// all workers share, and writes its own output slots. At the end every
// worker stores its partial sum into one shared variable without
// synchronization: that write-write race is the program's only race.
//
// The result goes to the file named by PERFBENCH_OUTPUT: the output
// digest and the racy checksum, one per line. Standard output stays
// empty because racedetect run shares it with the analysis report.
package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync"
)

// lastSum is written by every worker without synchronization.
var lastSum uint64

func main() {
	data, err := os.ReadFile(os.Getenv("PERFBENCH_INPUT"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "kernel:", err)
		os.Exit(2)
	}
	word := func(i int) uint32 { return binary.LittleEndian.Uint32(data[4*i:]) }
	workers, tableLen, keyLen := int(word(0)), int(word(1)), int(word(2))
	if workers < 1 || len(data) != 4*(3+tableLen+keyLen) {
		fmt.Fprintln(os.Stderr, "kernel: malformed input")
		os.Exit(2)
	}
	table := make([]uint32, tableLen)
	for i := range table {
		table[i] = word(3 + i)
	}
	keys := make([]uint32, keyLen)
	for i := range keys {
		keys[i] = word(3+tableLen+i) % uint32(tableLen)
	}

	out := make([]uint64, keyLen)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*keyLen/workers, (w+1)*keyLen/workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sum uint64
			for i := lo; i < hi; i++ {
				v := uint64(table[keys[i]])*2654435761 + uint64(i)
				out[i] = v
				sum += v
			}
			lastSum = sum
		}()
	}
	wg.Wait()

	var digest uint64
	for _, v := range out {
		digest = digest*1099511628211 ^ v
	}
	res := fmt.Sprintf("digest %d\nchecksum %d\n", digest, lastSum)
	if err := os.WriteFile(os.Getenv("PERFBENCH_OUTPUT"), []byte(res), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "kernel:", err)
		os.Exit(2)
	}
}
