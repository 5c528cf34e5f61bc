// Command perfbench is the repository benchmark. It runs one named
// SMaRtCoin workload against an in-process n=4 SMARTCHAIN cluster, driven by
// two client sessions (at most nproc) that pipeline invocations through
// client.Proxy, checks the run's outputs, and prints every metric by name
// and unit. The last line of standard output is the result object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 it reports the end-to-end metrics of an untraced run. With
// -trace 1 it runs the workload untraced and then traced, each for half of
// -seconds, and reports per-layer metrics measured at the wrapped layer
// boundaries, from node/disk/wire counters, and by replaying the traced
// run's chain through each layer's public functions. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setupRepeats is how many times an end-to-end run sets the deployment
// up; setup_s is the median, and the last deployment is measured.
const setupRepeats = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	wlName := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	outDir := flag.String("out", ".", "directory for the result, span and scratch files")
	flag.Parse()

	wl := findWorkload(*wlName)
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *wlName, *seconds, *trace)
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	sessions := min(2, runtime.NumCPU())
	info := runInfo(wl, *seed, *seconds, *trace, sessions)
	printJSON(map[string]any{"info": info})

	total := time.Duration(*seconds) * time.Second
	var rep *report
	var err error
	if *trace == 0 {
		rep, err = runEndToEnd(wl, *seed, total, sessions)
	} else {
		rep, err = runTraced(wl, *seed, total, sessions, *outDir)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, v := range rep.violations {
		fmt.Printf("VIOLATION %s\n", v)
	}
	for _, f := range rep.findings {
		fmt.Printf("finding: %s\n", f)
	}
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-36s %14.4f %s\n", n, rep.metrics[n].Value, rep.metrics[n].Unit)
	}
	res := result{
		Correct:   len(rep.violations) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	}
	file := filepath.Join(*outDir, fmt.Sprintf("result-%s-seed%d-trace%d.json", wl.name, *seed, *trace))
	if err := writeJSON(file, map[string]any{
		"info": info, "result": res, "violations": rep.violations, "findings": rep.findings,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	printJSON(res)
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d correctness violations\n", len(rep.violations))
		return 1
	}
	return 0
}

// report is what one invocation found.
type report struct {
	metrics           map[string]metric
	attempted, failed int
	violations        []string
	findings          []string
}

func runInfo(wl *workload, seed int64, seconds, trace, sessions int) map[string]any {
	host, _ := os.Hostname() // the host name is informational only
	return map[string]any{
		"workload":   wl.name,
		"why":        wl.why,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      trace,
		"sessions":   sessions,
		"host":       host,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"git_sha":    envOr("PERFBENCH_GIT_SHA", "unknown"),
		"src_digest": envOr("PERFBENCH_SRC_DIGEST", "unknown"),
	}
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps and structs of numbers and strings are printed
	}
	fmt.Println(string(b))
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

// runEndToEnd sets the deployment up setupRepeats times, measures the
// last one untraced, and checks it.
func runEndToEnd(wl *workload, seed int64, total time.Duration, sessions int) (*report, error) {
	in := makeInputs(wl, seed, sessions, total)
	origin := time.Now()
	var setups []float64
	var b *bench
	for i := 0; i < setupRepeats; i++ {
		nb, setup, err := newBench(wl, in, false, origin)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup.Seconds())
		if i < setupRepeats-1 {
			nb.stop()
			continue
		}
		b = nb
	}
	defer b.stop()
	rep := &report{}
	if err := b.runPhases(total); err != nil {
		rep.violations = append(rep.violations, err.Error())
	}
	rep.violations = append(rep.violations, b.check()...)
	e := b.measure()
	rep.attempted, rep.failed = e.attempted, e.failed
	// The 99th percentiles are not among the bounded metrics: host
	// contention on a small shared machine moves them by far more than any
	// usable bound from run to run. They are printed here and reported,
	// unbounded, by the traced run.
	rep.metrics = map[string]metric{
		"setup_s":         {median(setups), "s"},
		"tput_tx_s":       {e.tput, "tx/s"},
		"lat_p50_ms":      {e.latP50, "ms"},
		"read_tput_ops_s": {e.readTput, "ops/s"},
		"read_lat_p50_ms": {e.readP50, "ms"},
		"outage_ms":       {e.outage, "ms"},
	}
	if drops := b.wireDrops(); drops > 0 {
		rep.findings = append(rep.findings, fmt.Sprintf("tcp wire dropped %d frames", drops))
	}
	rep.findings = append(rep.findings,
		fmt.Sprintf("tails: lat_p99_ms %.3f, read_lat_p99_ms %.3f", e.latP99, e.readP99),
		fmt.Sprintf("samples: %d fixed-rate SPENDs, %d reads; fail_frac %.6f; epoch changes setup %d, phases %v",
			e.latSamples, e.readSamples, e.failFrac(), b.setupEpochChanges, phaseEpochs(b)),
		fmt.Sprintf("per repetition: tput_tx_s %.0f, read_tput_ops_s %.0f; set-ups %.3f s",
			e.satRates, e.readRates, setups))
	return rep, nil
}

func phaseEpochs(b *bench) map[string]int64 {
	out := make(map[string]int64)
	for _, p := range b.phases {
		out[p.kind.String()] += p.epochChanges
	}
	return out
}
