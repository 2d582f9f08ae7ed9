package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"bside/internal/corpus"
	"bside/internal/elff"
	"bside/internal/emu"
)

// binInfo is one generated binary with its emulator truth.
type binInfo struct {
	Name  string   `json:"name"`
	Hash  string   `json:"hash"`
	Truth []uint64 `json:"-"`
	// MayFail marks binaries engineered to exhaust an analysis budget
	// (corpus.FailureClass other than FailNone): a failed analysis of
	// one of these is the designed outcome, not a failed operation.
	MayFail bool `json:"-"`
	// Data is the image (kept only for uploads).
	Data []byte `json:"-"`
}

// fleet is the generated Debian-shaped tree: programs under bin/,
// their shared libraries under libs/.
type fleet struct {
	dir  string
	bins []binInfo
	idx  map[string]int
	libs map[string]*elff.Binary
}

func (f *fleet) binDir() string       { return filepath.Join(f.dir, "bin") }
func (f *fleet) libDir() string       { return filepath.Join(f.dir, "libs") }
func (f *fleet) manifestPath() string { return filepath.Join(f.dir, "manifest.json") }

// debianProfiles is the corpus.GenerateDebian profile list, or in
// smoke mode a stratified 1-in-16 sample of it that still holds every
// failure class.
func debianProfiles(seed int64, smoke bool) []corpus.Profile {
	all := corpus.DebianProfiles(seed)
	if !smoke {
		return all
	}
	var out []corpus.Profile
	seen := map[corpus.FailureClass]bool{}
	for i, p := range all {
		if i%16 == 0 || !seen[p.Class] {
			out = append(out, p)
			seen[p.Class] = true
		}
	}
	return out
}

// groundTruth runs bin under the emulator and returns the observed
// syscall set, exactly as the corpus package derives Build.Truth.
func groundTruth(bin *elff.Binary, libs map[string]*elff.Binary) ([]uint64, error) {
	m, err := emu.NewProcess(bin, libs)
	if err != nil {
		return nil, err
	}
	if err := m.RunBudget(emu.Budget{}); err != nil {
		return nil, err
	}
	if !m.Exited {
		return nil, fmt.Errorf("did not exit")
	}
	out := make([]uint64, 0, len(m.SyscallSet()))
	for n := range m.SyscallSet() {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// buildAll builds every profile with its truth over the given number
// of workers; it is corpus.GenerateDebian's per-profile step run in
// parallel, so the images are byte-identical to that function's.
func buildAll(profiles []corpus.Profile, libs map[string]*elff.Binary, workers int) ([]binInfo, error) {
	out := make([]binInfo, len(profiles))
	errs := make([]error, len(profiles))
	forEach(len(profiles), workers, func(i int) { out[i], errs[i] = buildOne(profiles[i], libs) })
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", profiles[i].Name, err)
		}
	}
	return out, nil
}

func buildOne(p corpus.Profile, libs map[string]*elff.Binary) (binInfo, error) {
	bin, err := corpus.BuildProgram(p)
	if err != nil {
		return binInfo{}, err
	}
	truth, err := groundTruth(bin, libs)
	if err != nil {
		return binInfo{}, err
	}
	data, err := elff.Write(bin.Spec())
	if err != nil {
		return binInfo{}, err
	}
	return binInfo{Name: p.Name, Hash: imageHash(data), Truth: truth,
		MayFail: p.Class != corpus.FailNone, Data: data}, nil
}

// imageHash is an image's content address, as the analyzer computes it.
func imageHash(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// generateFleet writes the seed's corpus into dir (replacing whatever
// was there) and returns its description.
func generateFleet(dir string, seed int64, smoke bool, workers int) (*fleet, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	set, err := corpus.NewLibrarySet()
	if err != nil {
		return nil, err
	}
	bins, err := buildAll(debianProfiles(seed, smoke), set.Libs, workers)
	if err != nil {
		return nil, err
	}
	f := &fleet{dir: dir, bins: bins, idx: make(map[string]int, len(bins)), libs: set.Libs}
	for _, sub := range []string{f.binDir(), f.libDir()} {
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, err
		}
	}
	for i := range f.bins {
		b := &f.bins[i]
		if err := os.WriteFile(filepath.Join(f.binDir(), b.Name), b.Data, 0o755); err != nil {
			return nil, err
		}
		b.Data = nil
		f.idx[b.Name] = i
	}
	for name, lib := range set.Libs {
		if err := lib.WriteFile(filepath.Join(f.libDir(), name)); err != nil {
			return nil, err
		}
	}
	data, err := json.Marshal(f.bins)
	if err != nil {
		return nil, err
	}
	return f, os.WriteFile(f.manifestPath(), data, 0o644)
}

// readManifest maps binary names to image hashes for a child process.
func readManifest(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bins []binInfo
	if err := json.Unmarshal(data, &bins); err != nil {
		return nil, err
	}
	out := make(map[string]string, len(bins))
	for _, b := range bins {
		out[b.Name] = b.Hash
	}
	return out, nil
}

// uploadVariants builds n never-seen variants of the large-binary
// profile (deep backward-search sites), each with its own seed.
func uploadVariants(seed int64, n int, libs map[string]*elff.Binary, workers int) ([]binInfo, error) {
	profiles := make([]corpus.Profile, n)
	for i := range profiles {
		p := corpus.LargeBinaryProfile()
		p.Name = fmt.Sprintf("upload-%04d", i)
		p.Seed = seed*1_000_003 + int64(i) + 1
		profiles[i] = p
	}
	out, err := buildAll(profiles, libs, workers)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool, n)
	for _, b := range out {
		if seen[b.Hash] {
			return nil, fmt.Errorf("upload variants repeat an image (%s)", b.Name)
		}
		seen[b.Hash] = true
	}
	return out, nil
}
