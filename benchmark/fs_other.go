//go:build !linux

package main

// filesystemOf names the filesystem holding dir; only Linux can tell.
func filesystemOf(string) string { return "unknown" }
