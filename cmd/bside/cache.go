package main

import (
	"errors"
	"flag"
	"fmt"
	"io"

	"bside/internal/cache"

	// The pack codecs are registered from the packages that own the
	// payload types; linking them in makes `bside cache pack` emit
	// binary-codec entries for "program" and "funcsum" kinds. The
	// analyzer import below pulls in both, but be explicit about the
	// dependency the compaction quality rides on.
	_ "bside/internal/ident"
	_ "bside/internal/shared"
)

// runCache administers a cache directory: compaction of its sealed
// segments and any existing pack into one mmapped pack.
func runCache(args []string, stdout, stderr io.Writer) error {
	if len(args) < 1 {
		fmt.Fprintln(stderr, "usage: bside cache pack -dir <cachedir>")
		return usageError{errors.New("cache: missing subcommand")}
	}
	sub := args[0]
	if sub != "pack" {
		fmt.Fprintln(stderr, "usage: bside cache pack -dir <cachedir>")
		return usageError{fmt.Errorf("cache: unknown subcommand %q", sub)}
	}
	fs := flag.NewFlagSet("cache "+sub, flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "", "cache directory (as given to -cache / CacheDir)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: bside cache %s -dir <cachedir>\n", sub)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return usageError{err}
	}
	if *dir == "" {
		fs.Usage()
		return usageError{errors.New("cache: -dir is required")}
	}
	st, err := cache.Open(*dir)
	if err != nil {
		return err
	}
	cs, err := st.Compact()
	if err != nil {
		return err
	}
	if cs.Packed == 0 {
		fmt.Fprintf(stdout, "bside cache pack: nothing to pack in %s (%d segments skipped)\n", *dir, cs.SkippedSegments)
		return nil
	}
	fmt.Fprintf(stdout, "bside cache pack: %s: %d entries (%d from segments + %d carried, %d binary-encoded) -> %s (%d bytes); pruned %d segments / %d packs, skipped %d live segments\n",
		*dir, cs.Packed, cs.FromSegments, cs.FromPacks, cs.BinaryEncoded,
		cs.PackPath, cs.PackBytes, cs.PrunedSegments, cs.PrunedPacks, cs.SkippedSegments)
	return nil
}
