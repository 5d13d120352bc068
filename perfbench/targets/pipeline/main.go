// Command pipeline is the run-pipeline benchmark target: a
// synchronization-heavy program with no data race.
//
// It reads the input file named by PERFBENCH_INPUT: little-endian uint32
// words [workers, accounts, txLen, then txLen (account, amount) pairs].
// A producer sends the transactions over a buffered channel to the
// workers; each worker applies one to its account under that account's
// own mutex and passes the amount on to a collector over a second
// buffered channel. Channels and mutexes order every shared access.
//
// The result goes to the file named by PERFBENCH_OUTPUT: the balance
// digest and the collector's checksum, one per line. Standard output
// stays empty because racedetect run shares it with the analysis report.
package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync"
)

type tx struct {
	account int
	amount  uint64
}

type account struct {
	mu      sync.Mutex
	balance uint64
}

func main() {
	data, err := os.ReadFile(os.Getenv("PERFBENCH_INPUT"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipeline:", err)
		os.Exit(2)
	}
	word := func(i int) uint32 { return binary.LittleEndian.Uint32(data[4*i:]) }
	workers, nAccounts, txLen := int(word(0)), int(word(1)), int(word(2))
	if workers < 1 || nAccounts < 1 || len(data) != 4*(3+2*txLen) {
		fmt.Fprintln(os.Stderr, "pipeline: malformed input")
		os.Exit(2)
	}
	txs := make([]tx, txLen)
	for i := range txs {
		txs[i] = tx{account: int(word(3+2*i)) % nAccounts, amount: uint64(word(4 + 2*i))}
	}
	accounts := make([]account, nAccounts)

	// Buffers of a few dozen let each stage run ahead of the next
	// without making the pipeline one unbounded queue.
	jobs := make(chan tx, 64)
	results := make(chan uint64, 64)

	go func() {
		for _, t := range txs {
			jobs <- t
		}
		close(jobs)
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range jobs {
				a := &accounts[t.account]
				a.mu.Lock()
				a.balance += t.amount
				a.mu.Unlock()
				results <- t.amount
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	var checksum uint64
	for b := range results {
		checksum += b
	}

	var digest uint64
	for i := range accounts {
		digest = digest*1099511628211 ^ accounts[i].balance
	}
	res := fmt.Sprintf("digest %d\nchecksum %d\n", digest, checksum)
	if err := os.WriteFile(os.Getenv("PERFBENCH_OUTPUT"), []byte(res), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "pipeline:", err)
		os.Exit(2)
	}
}
