package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is the unit of utime/stime in /proc/<pid>/stat. Linux fixes
// USER_HZ at 100 on every architecture Go supports.
const clockTick = 10 * time.Millisecond

// parseProcStat extracts user and system CPU time from the text of
// /proc/<pid>/stat. The command name (field 2) is parenthesised and may
// itself contain spaces and parentheses, so fields are counted from the
// last ')'.
func parseProcStat(text string) (user, sys time.Duration, err error) {
	i := strings.LastIndexByte(text, ')')
	if i < 0 {
		return 0, 0, errors.New("procfs: stat has no command field")
	}
	f := strings.Fields(text[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("procfs: stat has %d fields after the command, want at least 13", len(f))
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("procfs: utime/stime %q %q are not numbers", f[11], f[12])
	}
	return time.Duration(utime) * clockTick, time.Duration(stime) * clockTick, nil
}

// parseStatusKB returns a "Key:   123 kB" value of /proc/<pid>/status.
func parseStatusKB(text, key string) (kb uint64, err error) {
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, key+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("procfs: %s line %q is not '<n> kB'", key, line)
		}
		return strconv.ParseUint(f[0], 10, 64)
	}
	return 0, fmt.Errorf("procfs: status has no %s", key)
}

// procCPU reads a live process's accumulated user and system CPU time.
func procCPU(pid int) (user, sys time.Duration, err error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	return parseProcStat(string(b))
}

// procPeakRSS reads a live process's resident-set high-water mark in bytes.
func procPeakRSS(pid int) (uint64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseStatusKB(string(b), "VmHWM")
	return kb << 10, err
}

// selfCPU is this process's user and system time, at getrusage's
// microsecond resolution.
func selfCPU() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0 // cannot fail with a valid who and pointer
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

// parseHostCPU extracts, from the text of /proc/stat, the CPU time of the
// whole machine and the part of it the hypervisor gave to someone else
// ("steal") while this machine wanted to run. The first line reads
// "cpu user nice system idle iowait irq softirq steal ...", in clock ticks.
func parseHostCPU(text string) (total, steal time.Duration, err error) {
	line, _, _ := strings.Cut(text, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("procfs: /proc/stat starts with %q, want the cpu line with a steal field", line)
	}
	for i, s := range f[1:9] {
		ticks, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("procfs: cpu field %q is not a number", s)
		}
		total += time.Duration(ticks) * clockTick
		if i == 7 {
			steal = time.Duration(ticks) * clockTick
		}
	}
	return total, steal, nil
}

// hostCPU reads the machine-wide counters parseHostCPU explains.
func hostCPU() (total, steal time.Duration, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	return parseHostCPU(string(b))
}

// diskUsage sums the allocated size (st_blocks, what du reports) of every
// file under the given directories.
func diskUsage(dirs ...string) (uint64, error) {
	var total uint64
	for _, dir := range dirs {
		err := walkFiles(dir, func(st *syscall.Stat_t) { total += uint64(st.Blocks) * 512 })
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}

func walkFiles(dir string, fn func(*syscall.Stat_t)) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return err
	}
	for _, e := range ents {
		path := dir + "/" + e.Name()
		if e.IsDir() {
			if err := walkFiles(path, fn); err != nil {
				return err
			}
			continue
		}
		var st syscall.Stat_t
		if err := syscall.Lstat(path, &st); err != nil {
			if errors.Is(err, os.ErrNotExist) {
				continue // a temp file renamed away between ReadDir and Lstat
			}
			return err
		}
		fn(&st)
	}
	return nil
}

// fsType names the filesystem holding path, from /proc/self/mountinfo (the
// longest mount point that prefixes path).
func fsType(path string) string {
	b, err := os.ReadFile("/proc/self/mountinfo")
	if err != nil {
		return "unknown"
	}
	return fsTypeFrom(b, path)
}

func fsTypeFrom(mountinfo []byte, path string) string {
	best, typ := "", "unknown"
	for _, line := range bytes.Split(mountinfo, []byte("\n")) {
		// "<id> <parent> <maj:min> <root> <mount point> <opts> [optional...] - <fstype> <source> <superopts>"
		left, right, ok := strings.Cut(string(line), " - ")
		lf, rf := strings.Fields(left), strings.Fields(right)
		if !ok || len(lf) < 5 || len(rf) < 1 {
			continue
		}
		mp := lf[4]
		if (path == mp || strings.HasPrefix(path, strings.TrimSuffix(mp, "/")+"/")) && len(mp) >= len(best) {
			best, typ = mp, rf[0]
		}
	}
	return typ
}
