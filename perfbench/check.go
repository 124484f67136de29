package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"slices"

	"finepack/internal/core"
	"finepack/internal/sim"
)

// referenceSeed is the seed the committed fingerprints were generated
// for. Runs with any other seed check invariants and repeat identity only.
const referenceSeed = 1

//go:embed reference.json
var referenceJSON []byte

// fingerprint is the part of a sim.Result that pins an op's simulated
// output: any simulator change that keeps results bit-identical keeps
// every field.
type fingerprint struct {
	Time              int64                       `json:"time_ps"`
	WireBytes         core.Bytes                  `json:"wire_bytes"`
	DataBytes         core.Bytes                  `json:"data_bytes"`
	UsefulBytes       core.Bytes                  `json:"useful_bytes"`
	Packets           uint64                      `json:"packets"`
	StoresSent        uint64                      `json:"stores_sent"`
	Flushes           [core.NumFlushCauses]uint64 `json:"flushes"`
	Replays           uint64                      `json:"replays"`
	InterNodeHopBytes core.Bytes                  `json:"inter_node_hop_bytes"`
}

func fingerprintOf(r *sim.Result) fingerprint {
	return fingerprint{
		Time:              int64(r.Time),
		WireBytes:         r.WireBytes,
		DataBytes:         r.DataBytes,
		UsefulBytes:       r.UsefulBytes,
		Packets:           r.Packets,
		StoresSent:        r.StoresSent,
		Flushes:           r.Flushes,
		Replays:           r.Replays,
		InterNodeHopBytes: r.InterNodeHopBytes,
	}
}

// checker judges every op a run makes. An op fails when it returns an
// error, differs from the committed reference (reference seed only),
// differs from an earlier run of the same op, or breaks an invariant.
type checker struct {
	workload string
	ref      map[string]fingerprint // op key → fingerprint; nil off the reference seed
	lossy    bool
	first    map[string]fingerprint

	attempted, failed int
}

func newChecker(workload string, seed int64, lossy bool) (*checker, error) {
	c := &checker{workload: workload, lossy: lossy, first: map[string]fingerprint{}}
	if seed == referenceSeed {
		if err := json.Unmarshal(referenceJSON, &c.ref); err != nil {
			return nil, fmt.Errorf("reference fingerprints: %w", err)
		}
	}
	return c, nil
}

// check records one op outcome and reports whether it passed; a failure
// is also described on stderr.
func (c *checker) check(o *op, res *sim.Result, err error) bool {
	c.attempted++
	key := o.key(c.workload)
	if err == nil {
		err = c.verify(key, res)
	}
	if err != nil {
		c.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", key, err)
		return false
	}
	return true
}

func (c *checker) verify(key string, res *sim.Result) error {
	fp := fingerprintOf(res)
	if err := invariants(fp, c.lossy); err != nil {
		return err
	}
	if prev, ok := c.first[key]; ok && prev != fp {
		return fmt.Errorf("repeat run differs: %+v, first run %+v", fp, prev)
	}
	c.first[key] = fp
	if c.ref != nil {
		want, ok := c.ref[key]
		if !ok {
			return fmt.Errorf("no reference fingerprint")
		}
		if want != fp {
			return fmt.Errorf("fingerprint %+v, reference %+v", fp, want)
		}
	}
	return nil
}

// invariants are the checks that hold for every seed.
func invariants(fp fingerprint, lossy bool) error {
	if fp.Time <= 0 {
		return fmt.Errorf("non-positive simulated time %d", fp.Time)
	}
	if fp.UsefulBytes > fp.DataBytes {
		return fmt.Errorf("useful bytes %d exceed data bytes %d", fp.UsefulBytes, fp.DataBytes)
	}
	if fp.WireBytes > 0 && fp.DataBytes > fp.WireBytes {
		return fmt.Errorf("data bytes %d exceed wire bytes %d", fp.DataBytes, fp.WireBytes)
	}
	if lossy && fp.Replays == 0 {
		return fmt.Errorf("no replays on a lossy fabric")
	}
	return nil
}

// writeReference runs every op of every workload once at the reference
// seed and writes their fingerprints to path. It measures nothing.
func writeReference(path, dir string) error {
	ref := map[string]fingerprint{}
	for i := range benchWorkloads {
		w := &benchWorkloads[i]
		b, _, err := setup(w, referenceSeed, dir)
		if err != nil {
			return err
		}
		for j := range b.ops {
			o := &b.ops[j]
			res, err := o.run(nil)
			if err != nil {
				return fmt.Errorf("%s: %w", o.key(w.name), err)
			}
			fp := fingerprintOf(res)
			if err := invariants(fp, b.lossy); err != nil {
				return fmt.Errorf("%s: %w", o.key(w.name), err)
			}
			ref[o.key(w.name)] = fp
		}
	}
	// One op per line, keys sorted, so a regenerated file diffs by op.
	keys := make([]string, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var buf bytes.Buffer
	buf.WriteString("{\n")
	for i, k := range keys {
		line, err := json.Marshal(ref[k])
		if err != nil {
			return err
		}
		sep := ","
		if i == len(keys)-1 {
			sep = ""
		}
		fmt.Fprintf(&buf, "  %q: %s%s\n", k, line, sep)
	}
	buf.WriteString("}\n")
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
