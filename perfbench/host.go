package main

import (
	"runtime"
	"runtime/debug"
)

// hostInfo is the build and host provenance printed with every result, so
// figures from different runs can be compared.
type hostInfo struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Revision   string `json:"vcs_revision"`
	Modified   string `json:"vcs_modified,omitempty"`
	WorkFS     string `json:"work_fs"` // filesystem under the scratch and data dirs
}

func collectHostInfo(workDir string) hostInfo {
	h := hostInfo{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Revision:   "unknown",
		WorkFS:     fsType(workDir),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Revision = s.Value
			case "vcs.modified":
				h.Modified = s.Value
			}
		}
	}
	return h
}
