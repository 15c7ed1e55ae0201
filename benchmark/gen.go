package main

// gen.go owns every random draw of the benchmark. Each workload's inputs are
// a pure function of (-seed, -scale): the program under test only ever sees
// what is generated here, and opStreamSHA pins it so two runs (or two
// commits) can prove they did the same work.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"

	"safehome/internal/routine"
	"safehome/internal/workload"
)

// The fixed environment every request workload runs in (see README.md).
const (
	numHomes   = 64
	numPlugs   = 8
	bodyPool   = 4096 // distinct pre-rendered routine documents
	preseedPer = 64   // routines each home holds before poll_mixed starts
)

type opKind uint8

const (
	opSubmit  opKind = iota // POST /homes/{id}/routines
	opStatus                // GET  /homes/{id}/status
	opResult                // GET  /homes/{id}/routines/{rid}
	opEvents                // GET  /homes/{id}/events?since=<cursor>
	opMetrics               // GET  /metrics
)

// op is one generated request. body indexes stream.bodies (opSubmit); rid is
// the routine polled (opResult), always one of the pre-seeded ids.
type op struct {
	kind opKind
	home uint16
	body uint16
	rid  uint16
}

// stream is one workload's generated input: the body pool and the op order.
type stream struct {
	bodies [][]byte
	ops    []op
}

func (s *stream) submits() int {
	n := 0
	for _, o := range s.ops {
		if o.kind == opSubmit {
			n++
		}
	}
	return n
}

// rngFor derives an independent generator per (seed, purpose) so changing one
// workload's draw count never reshuffles another's.
func rngFor(seed int64, purpose string) *rand.Rand {
	h := sha256.Sum256([]byte(fmt.Sprintf("%d/%s", seed, purpose)))
	return rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(h[:8]) >> 1)))
}

// genBodies renders n three-command Fig 10 routine documents (~250 B each):
// three distinct plugs, ON/OFF targets, 1-5 minute holds (virtual time).
func genBodies(rng *rand.Rand, n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		plugs := rng.Perm(numPlugs)[:3]
		b := fmt.Appendf(nil, `{"routine_name":"bench-%05d","user":"user-%02d","commands":[`, i, rng.Intn(8))
		for c, p := range plugs {
			if c > 0 {
				b = append(b, ',')
			}
			action := "ON"
			if rng.Intn(2) == 0 {
				action = "OFF"
			}
			b = fmt.Appendf(b, `{"device":"plug-%d","action":"%s","duration_ms":%d,"priority":"must"}`,
				p, action, (1+rng.Intn(5))*60_000)
		}
		out[i] = append(b, "]}"...)
	}
	return out
}

// genSubmitStream is the submit_mem / submit_durable / recover input: n POSTs,
// homes and bodies drawn uniformly.
func genSubmitStream(seed int64, purpose string, n int) *stream {
	rng := rngFor(seed, purpose)
	s := &stream{bodies: genBodies(rng, bodyPool), ops: make([]op, n)}
	for i := range s.ops {
		s.ops[i] = op{kind: opSubmit, home: uint16(rng.Intn(numHomes)), body: uint16(rng.Intn(bodyPool))}
	}
	return s
}

// zipfCDF returns the cumulative distribution of a Zipf(alpha) law over n
// ranks; rank 0 is the hottest.
func zipfCDF(n int, alpha float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), alpha)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

// genPollStream is the poll_mixed input: 10 % POSTs and 90 % reads split
// evenly over status / one-routine / events polls, homes Zipf(1.1)-skewed,
// and one /metrics scrape every metricsEvery ops.
func genPollStream(seed int64, n, metricsEvery int) *stream {
	rng := rngFor(seed, "poll_mixed")
	s := &stream{bodies: genBodies(rng, bodyPool), ops: make([]op, n)}
	cdf := zipfCDF(numHomes, 1.1)
	for i := range s.ops {
		if metricsEvery > 0 && i%metricsEvery == metricsEvery-1 {
			s.ops[i] = op{kind: opMetrics}
			continue
		}
		o := op{home: uint16(sort.SearchFloat64s(cdf, rng.Float64()))}
		if rng.Intn(10) == 0 {
			o.kind, o.body = opSubmit, uint16(rng.Intn(bodyPool))
		} else {
			o.kind = opStatus + opKind(rng.Intn(3))
			o.rid = uint16(1 + rng.Intn(preseedPer))
		}
		s.ops[i] = o
	}
	return s
}

// genPreseed gives every home preseedPer routines, home-major, so poll_mixed
// reads find real history under ids 1..preseedPer.
func genPreseed(seed int64) *stream {
	rng := rngFor(seed, "poll_mixed/preseed")
	s := &stream{bodies: genBodies(rng, bodyPool)}
	for h := 0; h < numHomes; h++ {
		for i := 0; i < preseedPer; i++ {
			s.ops = append(s.ops, op{kind: opSubmit, home: uint16(h), body: uint16(rng.Intn(bodyPool))})
		}
	}
	return s
}

// Paper-trace shape: the generative engine's homes, sized so lineage tables
// stay occupied (400 routines over 40 devices inside a 10-minute window).
const (
	paperSpecs    = 30
	paperDevices  = 40
	paperRoutines = 400
)

// genPaperSpecs draws the paper_trace inputs: n generated homes with seeds
// seed, seed+1, ...
func genPaperSpecs(seed int64, n int) []workload.Spec {
	specs := make([]workload.Spec, n)
	for i := range specs {
		specs[i] = workload.Generate(workload.GenParams{Devices: paperDevices, Routines: paperRoutines, Seed: seed + int64(i)})
	}
	return specs
}

// sha hashes a request stream: every body, then every op in order.
func (s *stream) sha(h io.Writer) {
	for _, b := range s.bodies {
		_, _ = h.Write(b)
		_, _ = h.Write([]byte{0})
	}
	var buf [7]byte
	for _, o := range s.ops {
		buf[0] = byte(o.kind)
		binary.LittleEndian.PutUint16(buf[1:], o.home)
		binary.LittleEndian.PutUint16(buf[3:], o.body)
		binary.LittleEndian.PutUint16(buf[5:], o.rid)
		_, _ = h.Write(buf[:])
	}
}

// opStreamSHA returns the SHA-256 of everything the named workload feeds the
// program at this seed and scale.
func opStreamSHA(name string, seed int64, scale float64) (string, error) {
	sz := sizesFor(scale)
	h := sha256.New()
	switch name {
	case "submit_mem", "submit_durable":
		genSubmitStream(seed, name+"/lat", sz.latOps(name)).sha(h)
		genSubmitStream(seed, name+"/thr", sz.thrOps(name)).sha(h)
	case "poll_mixed":
		genPreseed(seed).sha(h)
		genPollStream(seed, sz.pollOps, sz.pollMetricsEvery).sha(h)
	case "recover":
		genSubmitStream(seed, "recover", sz.recoverOps).sha(h)
	case "paper_trace":
		for _, spec := range genPaperSpecs(seed, sz.paperSpecs) {
			fmt.Fprintf(h, "%s\n", spec.Name)
			for _, sub := range spec.Submissions {
				doc, err := routine.MarshalSpec(sub.Routine)
				if err != nil {
					return "", err
				}
				fmt.Fprintf(h, "%d %s %s\n", sub.At, sub.User, doc)
			}
		}
	default:
		return "", fmt.Errorf("unknown workload %q", name)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
