// Command benchmark is the study-regeneration benchmark: it regenerates the
// paper's products (Table 1 + Table 2 under two protocols, the Figure 8
// sweep, the fleet scalability point) a fixed number of times, reports
// end-to-end metrics with tracing off and per-layer metrics from a traced
// run, checks the outputs, and exits non-zero on a failed check.
//
//	bash benchmark/run.sh                      every workload, both tiers, one report
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
//	bash benchmark/run.sh --list               workloads, metrics, units, bounds
//	bash benchmark/run.sh compare A.json B.json
//
// See README.md for what each workload and metric is for.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// defaultOut keeps traces and result sets with the build outputs, inside
// the checkout but ignored by git.
const defaultOut = ".bench_build/out"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		if len(args) != 3 {
			fmt.Fprintln(stderr, "usage: benchmark compare A.json B.json")
			return 2
		}
		return compareFiles(args[1], args[2], stdout, stderr)
	}
	if len(args) == 1 && args[0] == "refsample" {
		fmt.Fprintln(stdout, refSample()) // what reference.sample runs in a child
		return 0
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "run this one workload and print its result as the last line (default: all, via child processes)")
		seed     = fs.Int64("seed", 1, "workload seed: orders each repetition's independent jobs")
		secs     = fs.Float64("seconds", runSeconds, "measure for this long (never fewer than 5 repetitions)")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		outDir   = fs.String("out", defaultOut, "directory for trace-<workload>.json and results.json")
		runs     = fs.Int("runs", 1, "with no --workload: sets of runs to make, on seeds seed..seed+runs-1")
		list     = fs.Bool("list", false, "print workloads, metrics, units and bounds, and exit")
		listJSON = fs.Bool("json", false, "with --list: print BENCHMARK.json instead")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		if *listJSON {
			stdout.Write(benchmarkJSON())
		} else {
			printList(stdout)
		}
		return 0
	}
	// Everything that can be wrong with the command line fails here, before
	// any run starts.
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	case *seed < 0:
		fmt.Fprintf(stderr, "benchmark: --seed %d: must not be negative\n", *seed)
		return 2
	case !(*secs > 0) || *secs > 600:
		fmt.Fprintf(stderr, "benchmark: --seconds %v: want a duration in (0, 600]\n", *secs)
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "benchmark: --trace %d: want 0 or 1\n", *trace)
		return 2
	case *runs < 1:
		fmt.Fprintf(stderr, "benchmark: --runs %d: want at least 1\n", *runs)
		return 2
	}
	spec, known := findWorkload(*name)
	if *name != "" && !known {
		fmt.Fprintf(stderr, "benchmark: unknown --workload %q (see --list)\n", *name)
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "benchmark: --out: %v\n", err)
		return 2
	}

	if *name != "" {
		res, inf, err := runWorkload(spec, *seed, *secs, *trace == 1, *outDir, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", *name, err)
			return 1
		}
		if err := printResult(stdout, res, inf); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		if !res.Correct {
			return 1
		}
		return 0
	}
	return runAll(*seed, *secs, *runs, *outDir, stdout, stderr)
}

// record is one child run as results.json keeps it.
type record struct {
	Info   info   `json:"info"`
	Result result `json:"result"`
}

type resultSet struct {
	Runs []record `json:"runs"`
}

// runAll runs every workload in a child process of its own — a clean heap,
// and a peak RSS that belongs to that workload alone — and writes the set.
func runAll(seed int64, secs float64, runs int, outDir string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	var set resultSet
	ok := true
	for i := 0; i < runs; i++ {
		for _, spec := range workloads {
			for trace := 0; trace <= 1; trace++ {
				if trace == 1 && i > 0 {
					continue // one traced run per set: layer metrics carry no bound
				}
				rec, err := runChild(self, spec.Name, seed+int64(i), secs, trace, outDir, stdout, stderr)
				if err != nil {
					fmt.Fprintf(stderr, "benchmark: %s: %v\n", spec.Name, err)
					ok = false
					continue
				}
				ok = ok && rec.Result.Correct
				set.Runs = append(set.Runs, rec)
			}
		}
	}
	b, err := json.MarshalIndent(set, "", " ")
	if err == nil {
		err = os.WriteFile(filepath.Join(outDir, "results.json"), b, 0o644)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: results.json: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s (%d runs)\n", filepath.Join(outDir, "results.json"), len(set.Runs))
	if !ok {
		return 1
	}
	return 0
}

// runChild re-executes the harness for one workload and tier, echoes its
// report and parses its last two lines.
func runChild(self, name string, seed int64, secs float64, trace int, outDir string, stdout, stderr io.Writer) (record, error) {
	var rec record
	cmd := exec.Command(self, "--workload", name, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(secs), "--trace", fmt.Sprint(trace), "--out", outDir)
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(stdout, &buf)
	cmd.Stderr = stderr
	runErr := cmd.Run()
	var exit *exec.ExitError
	if runErr != nil && !errors.As(runErr, &exit) {
		return rec, runErr
	}
	var last, before string
	sc := bufio.NewScanner(&buf)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		before, last = last, sc.Text()
	}
	if !strings.HasPrefix(before, "info ") {
		return rec, fmt.Errorf("child printed no result (%v)", runErr)
	}
	if err := json.Unmarshal([]byte(strings.TrimPrefix(before, "info ")), &rec.Info); err != nil {
		return rec, fmt.Errorf("child info line: %w", err)
	}
	if err := json.Unmarshal([]byte(last), &rec.Result); err != nil {
		return rec, fmt.Errorf("child result line: %w", err)
	}
	return rec, nil
}
