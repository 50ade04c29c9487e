// Command perfbench is the repository benchmark. It builds one workload
// from a seed, times compile+analyze ops in a closed loop with one
// caller, checks every op's output against a reference made during
// set-up, and prints every metric as the last line of its output:
//
//	go run . -workload corpus -seed 1 -seconds 10 -trace 0
//
// With -trace 1 it follows the timed ops with a traced pass over the same
// inputs and reports per-layer metrics instead of end-to-end ones.
// README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// workload is one benchmark input set: a loop of ops plus everything
// needed to check them.
type workload interface {
	// prepare runs before each op, outside the timed window (vrpd-edit
	// starts a fresh server here when a session has ended).
	prepare()
	// op runs one timed operation and returns the IR instructions of the
	// programs it submitted.
	op() int
	// check reports whether the op just run produced the reference
	// output.
	check() bool
	// idle reports whether the run may stop here: after a whole session
	// or a whole pass over the program pool.
	idle() bool
	// setupChecks returns how many output checks the set-up made and how
	// many of them failed.
	setupChecks() (n, failed int)
	// quality returns the paper's error metrics over the workload's fixed
	// program set.
	quality() quality
	// trace runs the traced pass and returns per-layer metrics.
	trace() (metrics, error)
	// corrupt flips a reference fingerprint, so every later check of
	// that output fails (the self-test's proof that checks fire).
	corrupt()
}

var workloads = map[string]func(seed int64) (workload, error){
	"corpus":    newCorpus,
	"gen-10k":   newGen10k,
	"vrpd-edit": newVrpdEdit,
}

// A run builds its workload at least minSetups times, and more, up to
// maxSetups, while the builds have taken less than setupCPU in all;
// setup_s is the median, and the last build is the one timed.
const (
	minSetups = 3
	maxSetups = 9
	setupCPU  = 2 * time.Second
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	corrupt  bool // self-test only: corrupt a reference before timing
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

type report struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`

	kernelMs float64 // the run's median kernel time, unscaled
}

func run(o options) (*report, error) {
	build, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want corpus, gen-10k or vrpd-edit)", o.workload)
	}
	var w workload
	var setup []float64
	var setupSum time.Duration
	for len(setup) < minSetups || (len(setup) < maxSetups && setupSum < setupCPU) {
		w = nil // let the previous build be collected before timing the next
		c0 := cpuNow()
		var err error
		if w, err = build(o.seed); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", o.workload, err)
		}
		d := cpuNow() - c0
		setup, setupSum = append(setup, d.Seconds()), setupSum+d
	}
	if o.corrupt {
		w.corrupt()
	}

	base := liveHeap()
	loop := timeOps(w, time.Duration(o.seconds*float64(time.Second)))
	retained := median(loop.heap) - float64(base)

	checks, bad := w.setupChecks()
	rep := &report{Attempted: len(loop.opCPU) + checks, Failed: loop.failed + bad}
	rep.Correct = rep.Failed == 0

	rep.kernelMs = median(loop.kernel)
	speed := refKernelMs / rep.kernelMs // scales CPU times to the reference host
	m := metrics{}
	if o.trace {
		var err error
		if m, err = w.trace(); err != nil {
			return nil, fmt.Errorf("%s traced pass: %w", o.workload, err)
		}
		for name, v := range m {
			if strings.HasSuffix(name, "cpu_ms") {
				m.set(name, v.Value*speed, v.Unit)
			}
		}
		m.set("harness.wall_over_cpu", loop.wall.Seconds()/loop.cpu.Seconds(), "ratio")
		m.set("harness.kernel_ms", rep.kernelMs, "ms")
	} else {
		var opCPU float64
		for _, c := range loop.opCPU {
			opCPU += c
		}
		q := w.quality()
		m.set("setup_s", median(setup)*speed, "s")
		m.set("cpu_ms_p50", median(loop.opCPU)*speed, "ms")
		m.set("cpu_ms_p90", percentile(loop.opCPU, 0.9)*speed, "ms")
		m.set("instrs_per_cpu_s", float64(loop.instrs)/(opCPU*speed/1e3), "instr/s")
		m.set("alloc_bytes_per_instr", float64(loop.allocs)/float64(loop.instrs), "B/instr")
		m.set("retained_mb", retained/(1<<20), "MB")
		m.set("err_w_pp", q.errW, "pp")
		m.set("err_u_pp", q.errU, "pp")
		m.set("hit_pct", q.hit, "%")
	}
	for name, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s is not finite", name)
		}
	}
	rep.Metrics = m
	return rep, nil
}

// print writes one human-readable line per metric, then the report as
// one JSON line, which must stay last.
func (r *report) print(w io.Writer) error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-26s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "ops %d, failed %d; kernel %.3f ms unscaled\n", r.Attempted, r.Failed, r.kernelMs)
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: corpus, gen-10k or vrpd-edit")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are made from")
	flag.Float64Var(&o.seconds, "seconds", 10, "minimum length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1: add the traced pass and report per-layer metrics")
	flag.Parse()
	o.trace = *trace == 1

	rep, err := run(o)
	if err == nil {
		err = rep.print(os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
