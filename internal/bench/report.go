// Package bench implements the paper's experiments (§5.3): one runner
// per table and figure, each regenerating the same rows/series the
// paper reports, over the testbed's own workload generators. The
// cmd/dkbbench binary prints the reports; bench_test.go wraps the
// runners as testing.B benchmarks; EXPERIMENTS.md records paper-vs-
// measured conclusions.
package bench

import (
	"encoding/json"
	"fmt"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// Report is one experiment's regenerated table/figure.
type Report struct {
	// ID is the experiment key ("fig7", "table4", ...).
	ID string
	// Title is the experiment's one-line description.
	Title string
	// Paper summarizes what the paper's version of the artifact shows.
	Paper string
	// Cols and Rows form the regenerated artifact.
	Cols []string
	Rows [][]string
	// Notes carry measured conclusions (crossovers, ratios).
	Notes []string
}

// Format renders the report as aligned text.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", strings.ToUpper(r.ID), r.Title)
	if r.Paper != "" {
		fmt.Fprintf(&b, "paper: %s\n", r.Paper)
	}
	widths := make([]int, len(r.Cols))
	for i, c := range r.Cols {
		widths[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(r.Cols)
	dashes := make([]string, len(r.Cols))
	for i := range dashes {
		dashes[i] = strings.Repeat("-", widths[i])
	}
	line(dashes)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// JSONReport is the machine-readable form of a finished experiment,
// written by dkbbench as BENCH_<id>.json so the perf trajectory can be
// tracked across commits. Rows carry the per-point measurements exactly
// as the text table does; the environment block records what hardware
// and settings produced them.
type JSONReport struct {
	ID    string     `json:"id"`
	Title string     `json:"title"`
	Paper string     `json:"paper,omitempty"`
	Cols  []string   `json:"cols"`
	Rows  [][]string `json:"rows"`
	Notes []string   `json:"notes,omitempty"`

	// Environment and run parameters.
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Quick      bool   `json:"quick"`
	Reps       int    `json:"reps"`
	// ElapsedMS is the wall time of the whole experiment run.
	ElapsedMS float64 `json:"elapsed_ms"`
	// Timestamp is the run's completion time (RFC 3339, UTC).
	Timestamp string `json:"timestamp"`
	// Commit is the checkout the run measured: git's HEAD, "+dirty"
	// appended when tracked files differ from it; empty outside a git
	// checkout.
	Commit string `json:"commit,omitempty"`
}

// gitCommit names the working tree's commit for JSONReport.Commit. It
// is read once per process, before the first report is written, so the
// files one run writes do not make each other "dirty".
var gitCommit = sync.OnceValue(func() string {
	head, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	commit := strings.TrimSpace(string(head))
	if exec.Command("git", "diff", "--quiet", "HEAD").Run() != nil {
		commit += "+dirty"
	}
	return commit
})

// JSON renders the report with its run environment as indented JSON.
func (r *Report) JSON(cfg Config, elapsed time.Duration) ([]byte, error) {
	jr := JSONReport{
		ID:         r.ID,
		Title:      r.Title,
		Paper:      r.Paper,
		Cols:       r.Cols,
		Rows:       r.Rows,
		Notes:      r.Notes,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      cfg.Quick,
		Reps:       cfg.reps(),
		ElapsedMS:  float64(elapsed.Microseconds()) / 1000,
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Commit:     gitCommit(),
	}
	out, err := json.MarshalIndent(jr, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// Config scales the experiments. Full (the default from dkbbench)
// reproduces paper-scale inputs; Quick shrinks everything so the whole
// suite runs in seconds for tests and CI.
type Config struct {
	Quick bool
	// Reps is the number of repetitions per measured point (the
	// minimum is reported, which is robust to scheduling noise).
	Reps int
}

// DefaultConfig is paper-scale.
func DefaultConfig() Config { return Config{Reps: 3} }

// QuickConfig is test-scale.
func QuickConfig() Config { return Config{Quick: true, Reps: 1} }

func (c Config) reps() int {
	if c.Reps <= 0 {
		return 1
	}
	return c.Reps
}

// pick returns quick when Quick, full otherwise.
func (c Config) pick(full, quick int) int {
	if c.Quick {
		return quick
	}
	return full
}

// measure runs f reps times and returns the minimum duration. Any error
// aborts.
func measure(reps int, f func() (time.Duration, error)) (time.Duration, error) {
	best := time.Duration(0)
	for i := 0; i < reps; i++ {
		d, err := f()
		if err != nil {
			return 0, err
		}
		if i == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

func us(d time.Duration) string {
	return fmt.Sprintf("%.0f", float64(d.Microseconds()))
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000)
}

func pct(part, whole time.Duration) string {
	if whole <= 0 {
		return "0%"
	}
	return fmt.Sprintf("%.0f%%", 100*float64(part)/float64(whole))
}

// Runner is a registered experiment.
type Runner struct {
	ID    string
	Title string
	Run   func(Config) (*Report, error)
}

var registry []Runner

func register(id, title string, run func(Config) (*Report, error)) {
	registry = append(registry, Runner{ID: id, Title: title, Run: run})
}

// Runners returns all registered experiments sorted by ID group order
// (figures then tables then ablations, in paper order).
func Runners() []Runner {
	out := append([]Runner(nil), registry...)
	rank := func(id string) string {
		// Stable, readable ordering: fig7..fig15 numerically, then
		// tables, then ablations.
		var n int
		switch {
		case strings.HasPrefix(id, "fig"):
			fmt.Sscanf(id, "fig%d", &n)
			return fmt.Sprintf("a%03d", n)
		case strings.HasPrefix(id, "table"):
			fmt.Sscanf(id, "table%d", &n)
			return fmt.Sprintf("b%03d", n)
		default:
			return "c" + id
		}
	}
	sort.Slice(out, func(i, j int) bool { return rank(out[i].ID) < rank(out[j].ID) })
	return out
}

// Find returns the runner with the given ID, or nil.
func Find(id string) *Runner {
	for i := range registry {
		if registry[i].ID == id {
			return &registry[i]
		}
	}
	return nil
}
