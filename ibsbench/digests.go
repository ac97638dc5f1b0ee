package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// Answer references. For the default seed (0) the benchmark compares each
// answer's SHA-256 digest with digests.json, recorded by a --record run that
// first verified every answer against the repository's reference
// executors. For any other seed it recomputes those references after the
// timed phase.

//go:embed digests.json
var recordedJSON []byte

// digestBook maps workload → operation key → answer digest.
type digestBook map[string]map[string]string

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// recordedDigests returns the recorded digests for o's workload, or nil
// when the run must recompute references: another seed, or a --record run.
func recordedDigests(o *options) (map[string]string, error) {
	if o.seed != 0 || o.record != "" {
		return nil, nil
	}
	var book digestBook
	if err := json.Unmarshal(recordedJSON, &book); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	d := book[o.workload]
	if len(d) == 0 {
		return nil, nil
	}
	return d, nil
}

// writeDigests merges one workload's verified digests into the book at
// path.
func writeDigests(path, workload string, d map[string]string) error {
	book := digestBook{}
	b, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(b, &book); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case !errors.Is(err, os.ErrNotExist):
		return err
	}
	book[workload] = d
	out, err := json.MarshalIndent(book, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// verdicts checks answers once per distinct (key, digest) pair: identical
// answers to identical operations share one check.
type verdicts struct {
	recorded map[string]string
	seen     map[[2]string]error
	pending  map[[2]string]func() error
}

func newVerdicts(recorded map[string]string) *verdicts {
	return &verdicts{recorded: recorded, seen: map[[2]string]error{}, pending: map[[2]string]func() error{}}
}

// add registers an answer. check recomputes its reference; it runs only
// when no recorded digest covers the key, and only once per digest.
func (v *verdicts) add(key, dig string, check func() error) {
	k := [2]string{key, dig}
	if _, ok := v.seen[k]; ok {
		return
	}
	if _, ok := v.pending[k]; ok {
		return
	}
	if v.recorded != nil {
		if want, ok := v.recorded[key]; ok {
			if want == dig {
				v.seen[k] = nil
			} else {
				v.seen[k] = fmt.Errorf("answer digest %.12s differs from the recorded %.12s", dig, want)
			}
			return
		}
	}
	v.pending[k] = check
}

// resolve runs the pending reference checks on workers goroutines.
func (v *verdicts) resolve(workers int) {
	type job struct {
		k [2]string
		f func() error
	}
	jobs := make(chan job)
	type done struct {
		k   [2]string
		err error
	}
	results := make(chan done)
	for w := 0; w < workers; w++ {
		go func() {
			for j := range jobs {
				results <- done{j.k, j.f()}
			}
		}()
	}
	go func() {
		for k, f := range v.pending {
			jobs <- job{k, f}
		}
		close(jobs)
	}()
	for range v.pending {
		d := <-results
		v.seen[d.k] = d.err
	}
	v.pending = map[[2]string]func() error{}
}

// verdict returns the check result of an answer registered with add.
func (v *verdicts) verdict(key, dig string) error {
	return v.seen[[2]string{key, dig}]
}

// record writes one verified digest per key when the run was asked to
// (--record). Keys whose answers failed their check are left out, so later
// runs recompute their references and keep reporting the failure.
func (v *verdicts) record(o *options) error {
	if o.record == "" {
		return nil
	}
	out := map[string]string{}
	for k, err := range v.seen {
		if err != nil {
			continue
		}
		if prev, ok := out[k[0]]; ok && prev != k[1] {
			return fmt.Errorf("%s: two different answers", k[0])
		}
		out[k[0]] = k[1]
	}
	return writeDigests(o.record, o.workload, out)
}
