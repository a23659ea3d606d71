package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// spread reruns this command n times with seeds seed, seed+1, ... and
// prints, for every metric, the median, the quartiles and the quartile
// distance ÷ median (Python's statistics.quantiles(values, n=4)). The
// runs are sequential so they do not compete for the CPUs.
func spread(n int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var base []string
	seed := int64(1)
	os.Args = os.Args[1:]
	for i := 0; i < len(os.Args); i++ {
		a := os.Args[i]
		switch a {
		case "-repeat", "--repeat":
			i++
			continue
		case "-seed", "--seed":
			i++
			if i < len(os.Args) {
				if seed, err = strconv.ParseInt(os.Args[i], 10, 64); err != nil {
					return fmt.Errorf("bad -seed: %w", err)
				}
			}
			continue
		}
		base = append(base, a)
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for r := 0; r < n; r++ {
		args := append(append([]string(nil), base...), "-seed", strconv.FormatInt(seed+int64(r), 10))
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d: %w", r, err)
		}
		var last, window []byte
		sc := bufio.NewScanner(bytes.NewReader(out))
		for sc.Scan() {
			line := sc.Bytes()
			if bytes.HasPrefix(line, []byte("# window")) {
				window = append(window[:0], line[2:]...)
			}
			if len(line) > 0 {
				last = append(last[:0], line...)
			}
		}
		var res result
		if err := json.Unmarshal(last, &res); err != nil {
			return fmt.Errorf("run %d: parse result: %w", r, err)
		}
		if !res.Correct {
			return fmt.Errorf("run %d: incorrect answers", r)
		}
		fmt.Printf("# run %d seed %d %s %s\n", r, seed+int64(r), window, last)
		for k, m := range res.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
	}
	var names []string
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%-34s %12s %12s %12s %8s\n", "metric", "q1", "median", "q3", "iqr/med")
	for _, k := range names {
		q1, q2, q3 := quartiles(values[k])
		fmt.Printf("%-34s %12.5g %12.5g %12.5g %8.4f  %s\n", k, q1, q2, q3, (q3-q1)/q2, units[k])
	}
	return nil
}
