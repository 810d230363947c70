package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// endToEndMetrics are the gated metrics every workload reports. Each is
// defined per workload on its own unit of work (README.md):
//
//	throughput_per_s  linerate packets/s, alert-stream packets carried/s,
//	                  fleet-churn fleet changes converged/s
//	latency_p50_ms    linerate one DeliverBatch chunk, alert-stream
//	                  packet-to-alert, fleet-churn Plan+Apply
//	settle_p50_ms     linerate window close (drain + bank snapshot),
//	                  alert-stream epoch settle, fleet-churn kill-to-drained
//
// The p90 tails are printed with the workload's named metrics but not
// gated: on a shared host the alert-stream p90 moved by up to 2x
// between runs, beyond any bound a regression gate may use.
var endToEndMetrics = []metricDef{
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"settle_p50_ms", "ms"},
	{"setup_s", "s"},
	{"heap_live_mb", "MB"},
}

// spanLayers are the modules the traced run attributes time to.
var spanLayers = []string{
	"netsim", "dataplane", "modules", "compiler", "wire", "telemetry",
	"rpc", "controller", "orchestrator", "placement", "scheduler", "topology",
}

// layerMetrics are the per-layer metrics every traced run reports; a
// layer a workload leaves idle reads 0.
var layerMetrics = func() []metricDef {
	ms := []metricDef{
		{"netsim.deliver_ns_per_pkt", "ns"},
		{"netsim.self_ns_per_pkt", "ns"},
		{"netsim.drain_ns_per_report", "ns"},
		{"netsim.lane_speedup", "x"},
		{"netsim.dropped", "count"},
		{"dataplane.process_ns_per_pkt", "ns"},
		{"dataplane.ternary_scans_per_pkt", "count"},
		{"modules.execute_ns_per_pkt", "ns"},
		{"modules.dispatch_miss_ratio", "ratio"},
		{"modules.execs_per_pkt.K", "count"},
		{"modules.execs_per_pkt.H", "count"},
		{"modules.execs_per_pkt.S", "count"},
		{"modules.execs_per_pkt.R", "count"},
		{"modules.allocs_per_pkt", "count"},
		{"modules.snapshot_ms", "ms"},
		{"compiler.compile_ms", "ms"},
		{"wire.encode_ns_per_epoch", "ns"},
		{"wire.delta_bank_share", "ratio"},
		{"wire.compress_ratio", "ratio"},
		{"telemetry.tick_ms", "ms"},
		{"telemetry.merge_lag_ms", "ms"},
		{"telemetry.accuracy_us", "us"},
		{"telemetry.export_backlog_max", "count"},
		{"telemetry.dup_alert_ratio", "ratio"},
		{"telemetry.export_dropped", "count"},
		{"telemetry.chain_breaks", "count"},
		{"telemetry.partial_epochs", "count"},
		{"telemetry.subscriber_drops", "count"},
		{"rpc.probe_us", "us"},
		{"rpc.retries", "count"},
		{"rpc.redials", "count"},
		{"orchestrator.plan_ms", "ms"},
		{"controller.apply_ms", "ms"},
		{"controller.deltas_per_apply", "count"},
		{"orchestrator.tick_ms", "ms"},
		{"orchestrator.admitted_share", "ratio"},
		{"placement.place_ms", "ms"},
		{"scheduler.plan_us", "us"},
		{"topology.neighbors_ns", "ns"},
		{"go.gc_cpu_fraction", "ratio"},
		{"go.allocs_per_converge", "count"},
		{"driver.generator_late_p90_ms", "ms"},
		{"ledger.sum_ns_per_pkt", "ns"},
		{"ledger.error_pct", "%"},
		{"trace.overhead_pct", "%"},
		{"trace.spans", "count"},
	}
	for _, l := range spanLayers {
		ms = append(ms,
			metricDef{"span." + l + ".count", "count"},
			metricDef{"span." + l + ".self_ms", "ms"},
			metricDef{"span." + l + ".wait_ms", "ms"})
	}
	return ms
}()

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// fingerprint identifies the host and the code a result came from.
// commit is the VCS revision when the binary was built in a git
// checkout, else a digest of the Go sources and module files under the
// working directory.
func fingerprint() map[string]string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "model name") {
				if i := strings.IndexByte(line, ':'); i >= 0 {
					cpu = strings.TrimSpace(line[i+1:])
				}
				break
			}
		}
	}
	commit := ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	if commit == "" {
		commit = "src-sha256:" + sourceDigest(".")
	}
	return map[string]string{
		"cpu":        cpu,
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"commit":     commit,
	}
}

// sourceDigest hashes every .go, go.mod and go.sum file under root
// (skipping dot-directories), in path order.
func sourceDigest(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		n := d.Name()
		if !strings.HasSuffix(n, ".go") && n != "go.mod" && n != "go.sum" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		h.Write([]byte(path))
		h.Write(b)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}
