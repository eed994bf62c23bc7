package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// clockTick is USER_HZ, the unit of the CPU times in /proc/<pid>/stat
// and /proc/stat; the Linux ABI fixes it at 100 per second.
const clockTick = 10 * time.Millisecond

// procCPU returns a process's user+system CPU time so far.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStat(b)
}

// parseProcStat extracts utime+stime (fields 14 and 15) from a
// /proc/<pid>/stat line. The command name in field 2 may itself hold
// spaces and parentheses, so fields are counted from its last ')'.
func parseProcStat(b []byte) (time.Duration, error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command name in %q", b)
	}
	f := strings.Fields(string(b[i+1:]))
	// f[0] is field 3 (state), so field k is f[k-3].
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command name, want at least 13", len(f))
	}
	var ticks uint64
	for _, s := range f[11:13] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc stat: %w", err)
		}
		ticks += v
	}
	return time.Duration(ticks) * clockTick, nil
}

// peakRSSMiB returns a process's peak resident set (VmHWM) in MiB.
func peakRSSMiB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseVmHWM(b)
	return float64(kb) / 1024, err
}

// parseVmHWM returns the VmHWM line of /proc/<pid>/status, in kB.
func parseVmHWM(b []byte) (uint64, error) {
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				return 0, fmt.Errorf("proc status: malformed %q", line)
			}
			return strconv.ParseUint(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}

// hostCPU is the aggregate "cpu" line of /proc/stat: all ticks, and the
// ticks the hypervisor gave to other guests (steal).
type hostCPU struct {
	total, steal uint64
}

func readHostCPU() (hostCPU, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}, err
	}
	return parseHostStat(b)
}

// parseHostStat reads the first line of /proc/stat: "cpu user nice
// system idle iowait irq softirq steal guest guest_nice". Guest time is
// already counted in user and nice, so it is left out of the total.
func parseHostStat(b []byte) (hostCPU, error) {
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}, fmt.Errorf("proc stat: malformed cpu line %q", line)
	}
	var h hostCPU
	for i, s := range f[1:9] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return hostCPU{}, fmt.Errorf("proc stat: %w", err)
		}
		h.total += v
		if i == 7 {
			h.steal = v
		}
	}
	return h, nil
}

// stealShare is the share of host CPU time stolen between two readings.
func stealShare(from, to hostCPU) float64 {
	if to.total <= from.total {
		return 0
	}
	return float64(to.steal-from.steal) / float64(to.total-from.total)
}
