package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"syscall"
)

// runSteady runs the workload k times, each a fresh process on the next
// seed, and prints every metric's median and its quartile spread ÷ median —
// the evidence behind the bounds in BENCHMARK.json.
func runSteady(workload string, seed uint64, seconds float64, trace, k int, server, work string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	failed := 0
	for i := 0; i < k; i++ {
		var out bytes.Buffer
		cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed+uint64(i)),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-server", server, "-work", work)
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("seed %d: %w", seed+uint64(i), err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("seed %d: last line: %w", seed+uint64(i), err)
		}
		if !res.Correct {
			failed++
		}
		fmt.Printf("seed %d: correct %v attempted %d failed %d;", seed+uint64(i), res.Correct, res.Attempted, res.Failed)
		for _, name := range sortedKeys(res.Metrics) {
			m := res.Metrics[name]
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
			fmt.Printf(" %s=%.4g", name, m.Value)
		}
		fmt.Println()
	}
	fmt.Printf("%s over %d seeds from %d (%d incorrect runs):\n", workload, k, seed, failed)
	fmt.Printf("%-28s %14s %14s %14s %10s\n", "metric", "median", "q1", "q3", "spread")
	for _, name := range sortedKeys(values) {
		v := values[name]
		if len(v) < 2 {
			continue
		}
		q1, q2, q3 := quartiles(v)
		fmt.Printf("%-28s %14.6g %14.6g %14.6g %9.2f%% %s\n", name, q2, q1, q3, 100*(q3-q1)/q2, units[name])
	}
	return nil
}
