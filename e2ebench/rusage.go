package main

import "syscall"

// selfRusage returns this process's resource usage.
func selfRusage() *syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil
	}
	return &ru
}

// maxRSSMB converts a Linux Maxrss (KiB) to MB; a missing usage reads 0,
// which the report rejects as an unmeasured figure.
func maxRSSMB(ru *syscall.Rusage) float64 {
	if ru == nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
