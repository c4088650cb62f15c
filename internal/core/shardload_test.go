package core

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/dataset"
)

// saveBlobs renders the blobs dataset to a libsvm file and returns the path
// (values survive the text format exactly: shortest-round-trip formatting).
func saveBlobs(t *testing.T) (string, *dataset.Dataset) {
	t.Helper()
	ds := dataset.MustGenerate("blobs", 0.2)
	path := filepath.Join(t.TempDir(), "blobs.libsvm")
	if err := dataset.SaveLibsvmFile(path, ds.X, ds.Y); err != nil {
		t.Fatal(err)
	}
	return path, ds
}

// TestLoadShardPartitionsParity checks the whole sharded path end to end:
// byte-range shard loading trains to a model bit-identical to TrainParallel
// on the single-file load, and the composed fingerprint equals the
// single-node fingerprint.
func TestLoadShardPartitionsParity(t *testing.T) {
	path, ds := saveBlobs(t)
	x, y, err := dataset.LoadLibsvmFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const p = 3
	cfg := blobCfg(ds, Original)
	want, wantStats, err := TrainParallel(x, y, p, cfg)
	if err != nil {
		t.Fatal(err)
	}

	d, err := LoadShardPartitions(path, p)
	if err != nil {
		t.Fatal(err)
	}
	if d.N != x.Rows() || d.Cols != x.Cols {
		t.Fatalf("sharded shape %dx%d, want %dx%d", d.N, d.Cols, x.Rows(), x.Cols)
	}
	if got, want := d.Fingerprint, ckpt.Fingerprint(x, y); got != want {
		t.Fatalf("composed fingerprint %016x != single-node %016x", got, want)
	}
	got, gotStats, err := TrainParallel(d.X, d.Y, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if gotStats.Iterations != wantStats.Iterations {
		t.Fatalf("iteration count %d != %d", gotStats.Iterations, wantStats.Iterations)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("sharded-load model differs from single-file model")
	}
}

// TestShardFingerprintStableAcrossShardCounts checks the fingerprint is a
// property of the data, not the sharding: every shard count, and the
// pre-split file layout, compose to the same value.
func TestShardFingerprintStableAcrossShardCounts(t *testing.T) {
	path, _ := saveBlobs(t)
	x, y, err := dataset.LoadLibsvmFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := ckpt.Fingerprint(x, y)
	for _, p := range []int{1, 2, 3, 5, 8} {
		d, err := LoadShardPartitions(path, p)
		if err != nil {
			t.Fatal(err)
		}
		if d.Fingerprint != want {
			t.Fatalf("p=%d: fingerprint %016x != %016x", p, d.Fingerprint, want)
		}
	}
	// Pre-split shard files compose to the same value too.
	base := filepath.Join(t.TempDir(), "blobs.libsvm")
	const n = 4
	if _, err := dataset.WriteShards(base, x, y, n); err != nil {
		t.Fatal(err)
	}
	d, err := LoadShardPartitions(base, n)
	if err != nil {
		t.Fatal(err)
	}
	if d.Fingerprint != want {
		t.Fatalf("shard files: fingerprint %016x != %016x", d.Fingerprint, want)
	}
}

// TestShardFingerprintDetectsMutation flips one byte in one shard file and
// checks a checkpoint stamped with the clean fingerprint refuses to resume.
func TestShardFingerprintDetectsMutation(t *testing.T) {
	path, _ := saveBlobs(t)
	x, y, err := dataset.LoadLibsvmFile(path)
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(t.TempDir(), "blobs.libsvm")
	const n = 3
	paths, err := dataset.WriteShards(base, x, y, n)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := LoadShardPartitions(base, n)
	if err != nil {
		t.Fatal(err)
	}
	st := &ckpt.State{N: clean.N, Fingerprint: clean.Fingerprint}
	if err := st.MatchesFingerprint(clean.N, clean.Fingerprint); err != nil {
		t.Fatal(err)
	}

	// Flip one label character in the middle shard ("+1 ..." <-> "-1 ...").
	data, err := os.ReadFile(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	switch data[0] {
	case '+':
		data[0] = '-'
	case '-':
		data[0] = '+'
	default:
		t.Fatalf("unexpected first byte %q", data[0])
	}
	if err := os.WriteFile(paths[1], data, 0o644); err != nil {
		t.Fatal(err)
	}
	mutated, err := LoadShardPartitions(base, n)
	if err != nil {
		t.Fatal(err)
	}
	if mutated.Fingerprint == clean.Fingerprint {
		t.Fatal("single-byte mutation not reflected in the fingerprint")
	}
	if err := st.MatchesFingerprint(mutated.N, mutated.Fingerprint); err == nil {
		t.Fatal("resume against mutated shard accepted")
	}
}
