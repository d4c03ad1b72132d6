// Package cli holds what every command shares: the version banner.
package cli

import (
	"fmt"
	"runtime"
	"runtime/debug"
)

// Version renders a one-line version banner for a tool, stamped from
// the build info the Go linker embeds: module version (if built as a
// versioned module), VCS revision and dirty state, and the Go
// toolchain.
func Version(tool string) string {
	ver, rev, dirty := "devel", "", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.Main.Version != "" && bi.Main.Version != "(devel)" {
			ver = bi.Main.Version
		}
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				rev = kv.Value
				if len(rev) > 12 {
					rev = rev[:12]
				}
			case "vcs.modified":
				if kv.Value == "true" {
					dirty = "-dirty"
				}
			}
		}
	}
	out := tool + " " + ver
	if rev != "" {
		out += " (" + rev + dirty + ")"
	}
	return out + " " + runtime.Version()
}

// MaybeVersion handles a version request before flag parsing: when the
// first argument is "version", "-version" or "--version" it prints the
// banner and reports true, and the caller should exit. Every cmd/*
// binary calls this first so `<tool> -version` works uniformly.
func MaybeVersion(tool string, args []string) bool {
	if len(args) == 0 {
		return false
	}
	switch args[0] {
	case "version", "-version", "--version":
		fmt.Println(Version(tool))
		return true
	}
	return false
}
