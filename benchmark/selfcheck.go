package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// contract is BENCHMARK.json: the names, units, directions and bounds
// the driver holds this benchmark to.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []gated `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

type gated struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readContract(path string) (*contract, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// quartiles returns what Python's statistics.quantiles(v, n=4) returns
// (the driver's measure of spread).
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		j = min(max(j, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// summary is one metric over one set of runs.
type summary struct {
	Samples int     `json:"samples"`
	Median  float64 `json:"median"`
	Q1      float64 `json:"q1"`
	Q3      float64 `json:"q3"`
	// Spread is (Q3-Q1)/Median, the share the driver compares with the
	// metric's bound.
	Spread float64 `json:"spread"`
	// Values are the runs' results in the order they were made.
	Values []float64 `json:"values"`
}

func summarize(v []float64) summary {
	q1, med, q3 := quartiles(v)
	return summary{Samples: len(v), Median: med, Q1: q1, Q3: q3, Spread: per(q3-q1, med), Values: v}
}

// runSelfcheck does what the driver does to accept the benchmark: two
// sets of runs of each workload, every run a child process with another
// seed, and for every gated metric the spread of each set and the drift
// of the second median against the first, both held to the metric's
// bound (setup_s: drift only).
func runSelfcheck(cfg config, names []string, runs int) error {
	if runs < 2 {
		return fmt.Errorf("-selfcheck needs at least 2 runs per set")
	}
	c, err := readContract("BENCHMARK.json")
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	report := map[string]any{
		"commit": gitCommit(), "go": runtime.Version(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"first_seed": cfg.seed, "runs_per_set": runs, "seconds": cfg.seconds, "sizes": fmt.Sprintf("%+v", cfg.sz),
	}
	host, _ := os.Hostname() // a missing host name leaves the stamp empty
	report["host"] = host
	perWorkload := map[string]any{}
	ok := true
	for _, name := range names {
		var sets [2]map[string][]float64
		var attempted []int
		for set := range sets {
			sets[set] = map[string][]float64{}
			for i := 0; i < runs; i++ {
				res, err := childRun(self, cfg, name, cfg.seed+int64(i))
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", name, cfg.seed+int64(i), err)
				}
				if !res.Correct {
					return fmt.Errorf("%s seed %d: %d of %d operations failed", name, cfg.seed+int64(i), res.Failed, res.Attempted)
				}
				attempted = append(attempted, res.Attempted)
				for metric, m := range res.Metrics {
					sets[set][metric] = append(sets[set][metric], m.Value)
				}
				for metric, m := range res.Timing {
					sets[set][metric] = append(sets[set][metric], m.Value)
				}
			}
		}
		rows := map[string]any{"attempted": attempted}
		fmt.Printf("%s (%d runs per set)\n", name, runs)
		fmt.Printf("  %-18s %12s %12s %12s %8s %8s %8s %6s\n", "metric", "median", "q1", "q3", "spread", "spread2", "drift", "bound")
		for _, g := range c.EndToEnd {
			a, b := summarize(sets[0][g.Name]), summarize(sets[1][g.Name])
			drift := per(b.Median-a.Median, a.Median)
			if g.Better == "higher" {
				drift = -drift
			}
			verdict := "ok"
			if drift > g.Bound || (g.Name != "setup_s" && (a.Spread > g.Bound || b.Spread > g.Bound)) {
				verdict = "FAIL"
				ok = false
			}
			fmt.Printf("  %-18s %12.5f %12.5f %12.5f %8.4f %8.4f %+8.4f %6.2f %s\n",
				g.Name, a.Median, a.Q1, a.Q3, a.Spread, b.Spread, drift, g.Bound, verdict)
			rows[g.Name] = map[string]any{"unit": g.Unit, "bound": g.Bound, "first": a, "second": b, "drift": drift, "verdict": verdict}
		}
		// The time-based metrics are reported beside them: their spreads
		// are why they are not gated.
		var timing []string
		for metric := range sets[0] {
			if _, gated := rows[metric]; !gated {
				timing = append(timing, metric)
			}
		}
		sort.Strings(timing)
		for _, metric := range timing {
			a, b := summarize(sets[0][metric]), summarize(sets[1][metric])
			drift := per(b.Median-a.Median, a.Median)
			fmt.Printf("  %-18s %12.5f %12.5f %12.5f %8.4f %8.4f %+8.4f %6s not gated\n",
				metric, a.Median, a.Q1, a.Q3, a.Spread, b.Spread, drift, "-")
			rows[metric] = map[string]any{"first": a, "second": b, "drift": drift, "verdict": "not gated"}
		}
		perWorkload[name] = rows
	}
	report["workloads"] = perWorkload
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(cfg.outDir, "selfcheck.json"), report); err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("selfcheck: a gated metric did not repeat within its bound")
	}
	return nil
}

// childRun runs one end-to-end run in a child process, as the driver
// does, and parses the last line of its output.
func childRun(self string, cfg config, name string, seed int64) (result, error) {
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", "0", "-out", cfg.outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, err
	}
	var last, timing string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
		if t, ok := strings.CutPrefix(last, timingPrefix); ok {
			timing = t
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return result{}, fmt.Errorf("last output line is not a result: %w", err)
	}
	if err := json.Unmarshal([]byte(timing), &res.Timing); err != nil {
		return result{}, fmt.Errorf("no line of time-based metrics: %w", err)
	}
	return res, nil
}

// gitCommit stamps the report; outside a git checkout it is "unknown".
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
