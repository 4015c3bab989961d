package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user+sys CPU so far (getrusage). The sum is
// scheduler-accounted, so it is exact even where the user/sys split is
// tick-sampled.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// totalAlloc is runtime.MemStats.TotalAlloc: ReadMemStats stops the world
// and flushes the per-P caches, which is what makes the per-op delta repeat
// exactly. Call it outside timed spans.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// cpuTicks is the aggregate "cpu" line of /proc/stat.
type cpuTicks struct{ steal, total uint64 }

func readCPUTicks() (cpuTicks, error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}, err
	}
	return parseCPUTicks(raw)
}

func parseCPUTicks(raw []byte) (cpuTicks, error) {
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 9 || f[0] != "cpu" {
			continue
		}
		var t cpuTicks
		// user nice system idle iowait irq softirq steal; guest columns are
		// already inside user/nice.
		for i, s := range f[1:9] {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				return cpuTicks{}, fmt.Errorf("/proc/stat: %w", err)
			}
			t.total += v
			if i == 7 {
				t.steal = v
			}
		}
		return t, nil
	}
	return cpuTicks{}, fmt.Errorf("/proc/stat: no aggregate cpu line")
}

// stealPct is the hypervisor-steal share of all CPU ticks between a and b,
// in percent: time this box wanted to run and could not.
func stealPct(a, b cpuTicks) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

// resetPeakRSS asks the kernel to restart VmHWM from the current RSS, so
// peak_rss_mb excludes the generator and the discarded set-up repeats.
// Containers may refuse the write; harness.rss_reset says which happened.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	return parseVmHWM(raw)
}

func parseVmHWM(raw []byte) (float64, error) {
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/self/status: no VmHWM line")
}
