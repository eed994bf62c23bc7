package main

import (
	"testing"
	"time"
)

func TestParseProcStat(t *testing.T) {
	// A command name with spaces and a ')' must not shift the fields.
	line := "4242 (sot (eria) x) S 1 4242 4242 0 -1 4194560 1234 0 0 0 250 37 0 0 20 0 9 0 100 0 0\n"
	got, err := parseProcStat([]byte(line))
	if err != nil {
		t.Fatal(err)
	}
	if want := 287 * clockTick; got != want {
		t.Errorf("cpu = %v, want %v", got, want)
	}
	if _, err := parseProcStat([]byte("4242 (x) S 1 2")); err == nil {
		t.Error("short stat line parsed")
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tsoteria\nVmPeak:\t  900000 kB\nVmHWM:\t  250880 kB\nVmRSS:\t  100 kB\n"
	kb, err := parseVmHWM([]byte(status))
	if err != nil || kb != 250880 {
		t.Errorf("VmHWM = %d, %v; want 250880", kb, err)
	}
	if _, err := parseVmHWM([]byte("Name:\tx\n")); err == nil {
		t.Error("status without VmHWM parsed")
	}
}

func TestParseHostStatAndSteal(t *testing.T) {
	a, err := parseHostStat([]byte("cpu  100 0 50 800 10 0 5 35 7 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n"))
	if err != nil {
		t.Fatal(err)
	}
	if a.total != 1000 || a.steal != 35 {
		t.Errorf("got %+v, want total 1000 steal 35", a)
	}
	b := hostCPU{total: 1200, steal: 85}
	if got := stealShare(a, b); got != 0.25 {
		t.Errorf("steal share = %v, want 0.25", got)
	}
	if _, err := parseHostStat([]byte("intr 1 2 3\n")); err == nil {
		t.Error("non-cpu line parsed")
	}
	if clockTick != 10*time.Millisecond {
		t.Error("USER_HZ is 100 on Linux")
	}
}
