package client_test

import (
	"fmt"
	"log"
	"os"

	"fasttrack/client"
	"fasttrack/trace"
)

// Stream a recorded trace to a racedetectd daemon and print its races.
func ExampleDial() {
	f, err := os.Open("tsp.bin")
	if err != nil {
		log.Fatal(err)
	}
	tr, err := trace.ReadBinary(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}

	s, err := client.Dial("localhost:7766", client.WithTool("FastTrack"))
	if err != nil {
		log.Fatal(err)
	}
	for _, e := range tr {
		if err := s.Write(e); err != nil { // batched into framed binary chunks
			log.Fatal(err)
		}
	}
	if err := s.Close(); err != nil { // flush + end the session
		log.Fatal(err)
	}
	res, err := s.Results() // the final results, kept after Close
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range res.Races {
		fmt.Println(r)
	}
}
