// Command benchmarks is the repository's wall-clock benchmark: four
// fixed workloads driven closed-loop by two wire.Client connections
// against a wire.Server over a device.FileDisk volume with a real fsync
// on every commit. See README.md in this directory.
//
//	go run . -seed 1                        every workload, end-to-end then traced
//	go run . -workload hot_read -seed 7     one workload, end-to-end
//	go run . -workload tx_write -trace 1 -out DIR   its traced run, spans dumped to DIR
//	go run . -calibrate 10                  two interleaved sets of runs, spreads and gaps
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// defaultSeconds is the measured window the bounds were calibrated on;
// BENCHMARK.json's run_seconds is the same number, and the driver passes
// it as -seconds on every run.
const defaultSeconds = 20

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run: "+workloadNames()+" (default: all, end-to-end and traced)")
		seed         = flag.Int64("seed", 1, "workload seed: file contents, sizes, op schedule and payloads all derive from it")
		seconds      = flag.Int("seconds", defaultSeconds, "measured window of an end-to-end run; the whole 2 s rounds in it are measured")
		trace        = flag.Int("trace", 0, "1 = the traced run (per-layer metrics) instead of the end-to-end run")
		out          = flag.String("out", "", "directory for the traced run's span dumps (default: a fresh directory under BENCH_DIR or the system temp directory)")
		calibrate    = flag.Int("calibrate", 0, "run two interleaved sets of N end-to-end runs per workload (all, or the -workload given) and compare them (N >= 3)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace %d: want 0 or 1", *trace))
	}
	if *seconds < 2 {
		fatal(fmt.Errorf("-seconds %d: the window must hold at least one 2 s round", *seconds))
	}
	dir, err := benchDir()
	if err != nil {
		fatal(err)
	}
	printEnvironment()
	if *seconds < defaultSeconds {
		fmt.Printf("# -seconds %d is below the calibrated %d s window: these numbers do not compare with BENCHMARK.json's bounds\n",
			*seconds, defaultSeconds)
	}

	run := workloads
	if *workloadName != "" {
		w := findWorkload(*workloadName)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q; have %s", *workloadName, workloadNames()))
		}
		run = []*workload{w}
	}
	if *calibrate != 0 {
		if *calibrate < 3 {
			fatal(fmt.Errorf("-calibrate %d: need at least 3 runs per set", *calibrate))
		}
		ok, err := runCalibration(run, dir, *calibrate, *seed, *seconds)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	modes := []int{*trace}
	if *workloadName == "" {
		modes = []int{0, 1}
	}
	if modes[len(modes)-1] == 1 {
		if *out == "" {
			*out, err = os.MkdirTemp(dir, "invbench-out-")
		} else {
			err = os.MkdirAll(*out, 0o755)
		}
		if err != nil {
			fatal(err)
		}
	}
	total := report{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range run {
		for _, mode := range modes {
			var rep report
			if mode == 0 {
				rep, err = reportE2E(w, *seed, defaultRun(dir, *seconds))
			} else {
				rep, err = reportTraced(w, *seed, dir, *out)
			}
			if err != nil {
				fatal(err)
			}
			total.Correct = total.Correct && rep.Correct
			total.Attempted += rep.Attempted
			total.Failed += rep.Failed
			for name, v := range rep.Metrics {
				if len(run) > 1 {
					name = w.name + "/" + name
				}
				total.Metrics[name] = v
			}
		}
	}
	if modes[len(modes)-1] == 1 {
		// The probes do not depend on the workload: once per invocation,
		// under their own names.
		probes, err := reportProbes()
		if err != nil {
			fatal(err)
		}
		for name, v := range probes {
			total.Metrics[name] = v
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !total.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmarks:", err)
	os.Exit(2)
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// printEnvironment states what the numbers were taken on and under
// which policy; GOMAXPROCS and GOGC are left at their defaults.
func printEnvironment() {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	fmt.Printf("# %s %s/%s, NumCPU %d, GOMAXPROCS %d, GOGC %s\n", runtime.Version(), runtime.GOOS, runtime.GOARCH,
		runtime.NumCPU(), runtime.GOMAXPROCS(0), gogc)
	fmt.Printf("# volume: device.FileDisk in a fresh directory, opened as invd -data opens it (%d-page pool, background writer,\n", poolPages)
	fmt.Printf("#   checkpoint 1m, wait sampling 10ms, commit window 0, 1 namespace shard, metrics history off)\n")
	fmt.Printf("# flush policy: every commit flushes its data pages, forces the log and fsyncs the backing file\n")
	fmt.Printf("# load: %d wire.Client connections on loopback, closed loop; latencies are this sandbox's\n", nClients)
	fmt.Printf("#   (reads served from the OS page cache, cheap flushes), not a disk's\n")
}

func printHeader(w *workload, kind string, seed int64) {
	fmt.Printf("\n== %s: %s, seed %d\n", w.name, kind, seed)
	fmt.Printf("#  why:  %s\n#  main: %s\n#  side: %s\n", w.why, w.mainOp, w.sideOp)
}

// makeReport prints every declared metric by name with its unit and
// builds the result line; a declared metric the run did not produce is
// an error.
func makeReport(defs []metricDef, values map[string]float64, attempted, failed tally, checkErr error) (report, error) {
	rep := report{Correct: checkErr == nil && failed.total() == 0, Attempted: attempted.total(), Failed: failed.total()}
	var err error
	if rep.Metrics, err = printMetrics(defs, values); err != nil {
		return rep, err
	}
	for c := opClass(0); c < numClasses; c++ {
		fmt.Printf("#  %s ops: %d attempted, %d failed\n", c, attempted[c], failed[c])
	}
	if checkErr != nil {
		fmt.Printf("#  CHECK FAILED: %v\n", checkErr)
	} else {
		fmt.Printf("#  output checks passed\n")
	}
	return rep, nil
}

func printMetrics(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		fmt.Printf("%-36s %16.4f %s\n", d.name, v, d.unit)
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}

func reportE2E(w *workload, seed int64, rc runConfig) (report, error) {
	printHeader(w, fmt.Sprintf("end-to-end, %d clients, %v warm-up, %v window in %d rounds, set-up x%d",
		nClients, rc.warmup, rc.window, rc.rounds, rc.setups), seed)
	res, err := runE2E(w, seed, rc)
	if err != nil {
		return report{}, err
	}
	fmt.Printf("#  samples in the window: %d main, %d side\n", res.mainN, res.sideN)
	return makeReport(endToEnd, res.metrics, res.attempted, res.failed, res.checkErr)
}

func reportTraced(w *workload, seed int64, dir, out string) (report, error) {
	tc := defaultTraced(dir, out)
	printHeader(w, fmt.Sprintf("traced, 1 client, %d ops x 4 passes (wire+spans, in-process+spans, wire plain, wire without wait sampling), then %d clients for %v",
		w.tracedOps, nClients, tc.window), seed)
	res, err := runTraced(w, seed, tc)
	if err != nil {
		return report{}, err
	}
	fmt.Printf("#  spans written to %s\n", out)
	return makeReport(layerDefs(false), res.metrics, res.attempted, res.failed, res.checkErr)
}

func reportProbes() (map[string]metricValue, error) {
	fmt.Printf("\n== probes: each layer's public functions called directly, a fixed number of times, over device.NewMem\n")
	values := make(map[string]float64)
	if err := runProbes(values, 1); err != nil {
		return nil, err
	}
	return printMetrics(layerDefs(true), values)
}
