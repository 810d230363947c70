// Command perfbench is the repository benchmark. It runs one of three
// seeded workloads against the Newton packages, through their public
// functions only, checks the outputs, and prints its metrics:
//
//	go run . --workload linerate --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object
// holding the end-to-end metrics; with --trace 1 it holds the per-layer
// metrics of a traced run, which also reports its tracing overhead
// against an untraced phase of the same run. Earlier lines are a human
// report: host fingerprint, every workload metric by name and unit with
// its sample count, and (traced) the per-layer span ledger. The process
// exits 1 when a correctness check fails and 2 on a usage or set-up
// error. See README.md for the workloads and metrics.
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

// options is one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // directory for span dumps and result files
	small    bool   // smoke-test sizes: tiny fleets and traces
}

// setups is how many times a run builds its system: set-up time is the
// median of five untraced set-ups; traced and smoke runs build once.
func (o options) setups() int {
	if o.trace || o.small {
		return 1
	}
	return 5
}

// phase is the length of one measured phase. A traced run spends its
// time on an untraced phase and then a traced one.
func (o options) phase() time.Duration {
	d := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		d /= 2
	}
	return d
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// detailRow is one workload-specific metric of the human report, named
// as an operator reads it, with the sample count behind it.
type detailRow struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// result is what a workload run returns.
type result struct {
	attempted, failed int64
	// violations are broken correctness checks; any makes the run
	// incorrect. Counted failures that are not violations still appear
	// in failed.
	violations []string
	failures   map[string]int64 // failed operations by cause
	// orderDependent counts outputs that differ from a reference but
	// also differ between valid orders of the same input, so they are
	// reported and not failed.
	orderDependent map[string]int64
	endToEnd       map[string]float64
	detail         []detailRow
	layers         map[string]float64
	// props are the measured properties that separate this workload
	// from the others (offered rates, miss ratio, fleet size).
	props map[string]float64
}

func newResult() *result {
	return &result{
		failures:       map[string]int64{},
		orderDependent: map[string]int64{},
		endToEnd:       map[string]float64{},
		layers:         map[string]float64{},
		props:          map[string]float64{},
	}
}

func (r *result) add(name string, v float64, unit string, samples int) {
	r.detail = append(r.detail, detailRow{name, v, unit, samples})
}

func (r *result) fail(cause string, n int64) {
	if n <= 0 {
		return
	}
	r.failures[cause] += n
	r.failed += n
}

func (r *result) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(options) (*result, error){
	"linerate":     runLinerate,
	"alert-stream": runAlertStream,
	"fleet-churn":  runFleetChurn,
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: linerate, alert-stream or fleet-churn")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs traced and reports per-layer metrics")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for span dumps and result files")
	flag.Parse()
	o.trace = traceFlag == 1
	run, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload linerate|alert-stream|fleet-churn, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	host := fingerprint()
	r, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(2)
	}
	if err := report(os.Stdout, o, host, r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	if len(r.violations) > 0 {
		os.Exit(1)
	}
}

// finalLine is the machine-readable last line of standard output.
type finalLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) final(traced bool) finalLine {
	fl := finalLine{Correct: len(r.violations) == 0, Attempted: r.attempted,
		Failed: r.failed, Metrics: map[string]metric{}}
	if fl.Attempted < 1 {
		fl.Attempted = 1
	}
	if traced {
		for _, m := range layerMetrics {
			fl.Metrics[m.name] = metric{r.layers[m.name], m.unit}
		}
	} else {
		for _, m := range endToEndMetrics {
			fl.Metrics[m.name] = metric{r.endToEnd[m.name], m.unit}
		}
	}
	return fl
}

// report prints the human report, writes the full result file, and
// prints the final JSON line.
func report(w *os.File, o options, host map[string]string, r *result) error {
	mode := "untraced"
	if o.trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "# perfbench %s seed=%d seconds=%g %s\n", o.workload, o.seed, o.seconds, mode)
	fmt.Fprintf(w, "# host cpu=%q nproc=%s gomaxprocs=%s go=%s commit=%s\n",
		host["cpu"], host["nproc"], host["gomaxprocs"], host["go"], host["commit"])
	fmt.Fprintf(w, "%-34s %16s  %-10s %8s\n", "metric", "value", "unit", "samples")
	for _, d := range r.detail {
		fmt.Fprintf(w, "%-34s %16.6g  %-10s %8d\n", d.Name, d.Value, d.Unit, d.Samples)
	}
	for _, k := range sortedKeys(r.props) {
		fmt.Fprintf(w, "property %-25s %16.6g\n", k, r.props[k])
	}
	fmt.Fprintf(w, "operations attempted=%d failed=%d\n", r.attempted, r.failed)
	for _, k := range sortedKeys(r.failures) {
		fmt.Fprintf(w, "failed %-27s %16d\n", k, r.failures[k])
	}
	for _, k := range sortedKeys(r.orderDependent) {
		fmt.Fprintf(w, "order-dependent %-27s %7d\n", k, r.orderDependent[k])
	}
	for _, v := range r.violations {
		fmt.Fprintf(w, "VIOLATION %s\n", v)
	}
	if o.trace {
		for _, m := range layerMetrics {
			fmt.Fprintf(w, "layer %-40s %16.6g  %s\n", m.name, r.layers[m.name], m.unit)
		}
	}
	fl := r.final(o.trace)
	if err := writeResultFile(o, host, r, fl); err != nil {
		return err
	}
	line, err := json.Marshal(fl)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func writeResultFile(o options, host map[string]string, r *result, fl finalLine) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	mode := 0
	if o.trace {
		mode = 1
	}
	body, err := json.MarshalIndent(map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": mode,
		"host": host, "time": time.Now().UTC().Format(time.RFC3339),
		"result": fl, "detail": r.detail, "properties": r.props,
		"failures": r.failures, "order_dependent": r.orderDependent,
		"violations": r.violations,
	}, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("result-%s-seed%d-trace%d.json", o.workload, o.seed, mode)
	return os.WriteFile(filepath.Join(o.out, name), body, 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// heapLiveMB is the live heap after two full collections. Runs report
// it at the end of the measured phase less its value once their inputs
// were generated, so the trace a seed draws does not count as the
// system's memory.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
