// Command perfbench is the repository's end-to-end benchmark. It runs
// one of three workloads through the public API of the Silo layers —
// topology, placement (with netcal), placement/durable, the
// experiments deploy path, pacer, netsim, transport and obs — and
// prints the end-to-end metrics (default) or, with -trace 1, the
// per-layer metrics from spans the benchmark records around every
// call it makes into a layer.
//
//	perfbench -workload admit-100k -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// Every input (tenant stream, message schedule, packet generators) is
// generated from -seed. See README.md for the metric definitions.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/stats"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the machine-readable last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is what every workload receives from the command line.
type config struct {
	seed    uint64
	seconds float64
	out     string  // directory for the store, records and traces
	tr      *tracer // nil on untraced runs
	tiny    bool    // shrinks the workload (self-test)
	// plant names a deliberately broken configuration the self-test
	// uses to prove a failure check fires: "wal" makes WAL appends fail
	// on admit-100k, "unpaced" deploys dc-paced without Silo (plain
	// TCP on locality placement).
	plant string
}

// report is what a workload hands back to main.
type report struct {
	attempted, failed int64
	// problems lists failed output checks; the run is correct iff it
	// is empty and no op failed.
	problems []string
	// digest summarizes the workload's decisions and simulated outcome;
	// it is identical across builds that compute the same answers.
	digest string
	// metrics holds the end-to-end metrics (untraced) or the per-layer
	// metrics (traced).
	metrics map[string]metric
	// spread holds the in-run quartiles (p25, p50, p75) of the metrics
	// that are medians over repetitions.
	spread map[string][3]float64
	// lines are human-readable details printed before the result.
	lines []string
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, spread: map[string][3]float64{}}
}

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// setMedian reports the median of vals and records their quartiles.
func (r *report) setMedian(name, unit string, vals []float64) {
	q := quartiles(vals)
	r.spread[name] = q
	r.set(name, unit, q[1])
}

var workloads = map[string]func(config) (*report, error){
	"admit-100k": runAdmit,
	"dc-paced":   runDCPaced,
	"fabric-par": runFabricPar,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: admit-100k, dc-paced or fabric-par")
		seed     = flag.Uint64("seed", 1, "workload seed; every input is generated from it")
		seconds  = flag.Float64("seconds", 10, "length of the timed phase in seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
		out      = flag.String("out", ".bench_out", "directory for the durable store, run records and span traces")
	)
	flag.Parse()
	if _, ok := workloads[*workload]; !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench -workload admit-100k|dc-paced|fabric-par -seed N -seconds S -trace 0|1\n")
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cfg := config{seed: *seed, seconds: *seconds, out: *out}
	if *trace == 1 {
		cfg.tr = newTracer()
	}
	res, _, err := runOnce(*workload, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", *workload, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Stdout.Write(append(line, '\n'))
}

// runOnce runs one workload and prints its report.
func runOnce(workload string, cfg config) (result, *report, error) {
	rep, err := workloads[workload](cfg)
	if err != nil {
		return result{}, nil, err
	}
	return finish(workload, cfg, rep, fingerprint(workload, cfg.seed)), rep, nil
}

// finish prints the human-readable report, writes the run record (and
// the span trace on traced runs) and builds the result line.
func finish(workload string, cfg config, rep *report, fp map[string]any) result {
	want := perLayer
	if cfg.tr == nil {
		if _, ok := rep.metrics["peak_rss_mb"]; !ok {
			rep.set("peak_rss_mb", "MB", peakRSSMB())
		}
		want = endToEnd
	}
	// Emit exactly the declared metrics: a traced run reads 0 for a
	// layer the workload does not exercise; an end-to-end metric must
	// never be missing or 0.
	known := map[string]bool{}
	for _, m := range want {
		known[m[0]] = true
		got, ok := rep.metrics[m[0]]
		switch {
		case cfg.tr != nil && !ok:
			rep.set(m[0], m[1], 0)
		case cfg.tr == nil && (!ok || got.Value == 0):
			rep.check(false, "end-to-end metric %s missing or 0", m[0])
		case ok && got.Unit != m[1]:
			rep.check(false, "metric %s has unit %s, declared %s", m[0], got.Unit, m[1])
		}
	}
	for n := range rep.metrics {
		rep.check(known[n], "metric %s is not declared", n)
	}
	res := result{
		Correct:   len(rep.problems) == 0 && rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	}
	fpLine, _ := json.Marshal(fp)
	fmt.Printf("fingerprint: %s\n", fpLine)
	for _, l := range rep.lines {
		fmt.Println(l)
	}
	fmt.Printf("digest: %s\n", rep.digest)
	fmt.Printf("ops: attempted=%d failed=%d\n", rep.attempted, rep.failed)
	for _, p := range rep.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.metrics[n]
		if q, ok := rep.spread[n]; ok {
			fmt.Printf("metric %-28s %14.6g %-8s (in-run quartiles %.6g / %.6g / %.6g)\n", n, m.Value, m.Unit, q[0], q[1], q[2])
		} else {
			fmt.Printf("metric %-28s %14.6g %s\n", n, m.Value, m.Unit)
		}
	}

	kind := "e2e"
	if cfg.tr != nil {
		kind = "trace"
		path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.json", workload, cfg.seed))
		if err := cfg.tr.writeChrome(path, fp); err != nil {
			fmt.Fprintln(os.Stderr, err)
		} else {
			fmt.Printf("spans: %d written to %s (Chrome trace_event JSON; open in Perfetto)\n", len(cfg.tr.spans), path)
		}
	}
	record := map[string]any{
		"fingerprint": fp, "result": res, "spread": rep.spread,
		"digest": rep.digest, "problems": rep.problems, "details": rep.lines,
	}
	if b, err := json.MarshalIndent(record, "", "  "); err == nil {
		path := filepath.Join(cfg.out, fmt.Sprintf("record-%s-seed%d-%s.json", workload, cfg.seed, kind))
		if err := os.WriteFile(path, b, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}
	return res
}

// fingerprint identifies the machine, toolchain and build a record
// came from.
func fingerprint(workload string, seed uint64) map[string]any {
	meta := obs.CollectRunMeta("perfbench")
	meta.Seed = int64(seed)
	meta.Workers = runtime.GOMAXPROCS(0)
	return map[string]any{
		"workload":   workload,
		"seed":       seed,
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"git_rev":    meta.Version,
		"meta":       meta,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// resetPeakRSS collects garbage and restarts the VmHWM high-water mark
// at the current RSS, so the next peakRSSMB covers what follows. Freed
// memory is not returned to the OS first: the next set-up would then
// pay page faults a steady process does not. If the kernel refuses the
// reset, VmHWM keeps covering the whole process.
func resetPeakRSS() {
	runtime.GC()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// stealClock reads the machine's CPU time from /proc/stat: all jiffies
// and the jiffies the hypervisor gave to other guests (steal).
type stealClock struct{ total, steal int64 }

func readSteal() stealClock {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealClock{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var c stealClock
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		c.total += v
		if i == 7 {
			c.steal = v
		}
	}
	return c
}

// unstolen converts a wall interval that began at c into the host
// seconds left to this machine's guests: wall × (1 − steal share).
// Throughputs divide by it, so a neighbour's burst of CPU steal does
// not read as a slowdown of the program.
func (c stealClock) unstolen(wall float64) float64 {
	now := readSteal()
	if now.total <= c.total {
		return wall
	}
	return wall * (1 - float64(now.steal-c.steal)/float64(now.total-c.total))
}

// quartiles returns the nearest-rank p25, p50 and p75 of vals.
func quartiles(vals []float64) [3]float64 {
	s := stats.NewSample(len(vals))
	s.AddAll(vals)
	return [3]float64{s.Percentile(25), s.Percentile(50), s.Percentile(75)}
}

// pct returns the nearest-rank percentile of vals.
func pct(vals []float64, p float64) float64 {
	s := stats.NewSample(len(vals))
	s.AddAll(vals)
	return s.Percentile(p)
}

// since returns the wall time since t0 in seconds.
func since(t0 time.Time) float64 { return time.Since(t0).Seconds() }
