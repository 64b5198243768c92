//go:build !linux

package main

// fsType names the filesystem holding dir; only Linux is probed.
func fsType(string) string { return "unknown" }

// maxRSSBytes is the process's peak resident set size; only Linux reports it.
func maxRSSBytes() float64 { return 0 }
