package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// environment is recorded with every result: two results compare only
// when their environments match.
type environment struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	// Commit is the git commit if the tree is a repository (the run script
	// passes it in APTQBENCH_COMMIT); Source hashes the Go sources and
	// go.mod of the program, which identifies the code without git.
	Commit string `json:"commit"`
	Source string `json:"source_sha256"`
	// StealShare is the CPU time the host took from this machine over the
	// CPU time it wanted (busy plus stolen) during the run, from
	// /proc/stat; -1 where unreadable. On a shared virtual machine, runs
	// with high steal measure the neighbours, not the code.
	StealShare float64 `json:"host_cpu_steal_share"`
	// WindowSteal is the steal share of each untraced window measured: a
	// second when the first exceeded stealLimit. The result reports
	// the window with the lower steal.
	WindowSteal []float64 `json:"window_steal_share"`
	// PeakRSSWindowed is false where the kernel refused the peak-RSS
	// reset: max_rss_mb is then the whole process's peak, set-up included.
	PeakRSSWindowed bool `json:"peak_rss_windowed"`
}

func stampEnvironment(workload string, seed int64) environment {
	commit := os.Getenv("APTQBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return environment{
		Workload:   workload,
		Seed:       seed,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commit,
		Source:     sourceDigest("."),
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown".
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

// sourceDigest hashes the path and contents of go.mod and every .go file
// under root, skipping the benchmark's own directory and build outputs.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case "aptqbench", ".bench_build", ".git":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && path != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// stealLimit is the window steal share above which a run measures its
// untraced window a second time, and above which the reported window is
// flagged as measuring the host rather than the program. On a 2-CPU
// virtual machine, windows at 20-40% steal had 1.7-3 times the TTFT of
// windows below 3%.
const stealLimit = 0.05

// cpuTimes returns the steal and the busy-plus-steal jiffies of
// /proc/stat's cpu line.
func cpuTimes() (steal, demand float64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0, false
		}
		// user nice system idle iowait irq softirq steal; guest time is
		// already in user.
		if i < 8 && i != 3 && i != 4 {
			demand += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, demand, true
}

// stealSince returns the steal share since the cpuTimes reading (s0, d0).
func stealSince(s0, d0 float64, ok0 bool) float64 {
	s1, d1, ok1 := cpuTimes()
	if !ok0 || !ok1 || d1 <= d0 {
		return -1
	}
	return (s1 - s0) / (d1 - d0)
}
