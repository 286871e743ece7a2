package nn

import (
	"bytes"
	"encoding/gob"
	"errors"
	"strings"
	"testing"
)

func trainedNet(t *testing.T) *Network {
	t.Helper()
	net, err := New(Config{
		Inputs: 3,
		Layers: []LayerSpec{{8, ReLU}, {1, Sigmoid}},
		Seed:   5, LR: 0.02, Epochs: 30, Batch: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	X := [][]float64{{0, 0, 1}, {0, 1, 0}, {1, 0, 0}, {1, 1, 1}}
	y := []float64{0, 1, 1, 0}
	if _, err := net.Train(X, y); err != nil {
		t.Fatal(err)
	}
	return net
}

func TestSnapshotRoundTrip(t *testing.T) {
	net := trainedNet(t)
	var buf bytes.Buffer
	if err := net.Snapshot().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	probe := [][]float64{{0.2, 0.8, 0.5}, {0.9, 0.1, 0.3}, {0, 0, 0}}
	for _, x := range probe {
		if net.Predict(x) != back.Predict(x) {
			t.Fatalf("inference diverged after round trip at %v", x)
		}
	}
	// The restored network must quantize identically too.
	q1, err := net.Quantize()
	if err != nil {
		t.Fatal(err)
	}
	q2, err := back.Quantize()
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range probe {
		if predictOne(q1, x) != predictOne(q2, x) {
			t.Fatalf("quantized inference diverged at %v", x)
		}
	}
}

func TestSnapshotValidate(t *testing.T) {
	net := trainedNet(t)
	good := net.Snapshot()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}

	bad := net.Snapshot()
	bad.Weights[0] = bad.Weights[0][:3]
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "weights") {
		t.Fatalf("truncated weights accepted: %v", err)
	}

	bad = net.Snapshot()
	bad.Biases[1] = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("missing biases accepted")
	}

	bad = net.Snapshot()
	bad.Inputs = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero inputs accepted")
	}

	bad = net.Snapshot()
	bad.Layers = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("no layers accepted")
	}

	bad = net.Snapshot()
	bad.Layers[0].Units = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero units accepted")
	}
}

func TestFromSnapshotRejectsInvalid(t *testing.T) {
	if _, err := FromSnapshot(Snapshot{}); err == nil {
		t.Fatal("empty snapshot accepted")
	}
}

func TestReadSnapshotGarbage(t *testing.T) {
	if _, err := ReadSnapshot(strings.NewReader("garbage")); !errors.Is(err, ErrSnapshotFormat) {
		t.Fatalf("garbage gave %v, want ErrSnapshotFormat", err)
	}
}

func TestReadSnapshotFormatErrors(t *testing.T) {
	net := trainedNet(t)
	var buf bytes.Buffer
	if err := net.Snapshot().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := map[string][]byte{
		"empty":           nil,
		"short header":    good[:2],
		"wrong version":   append([]byte("HNN9"), good[4:]...),
		"wrong magic":     append([]byte("XXXX"), good[4:]...),
		"truncated body":  good[:len(good)/2],
		"corrupt payload": append(append([]byte{}, good[:4]...), []byte("not a gob stream")...),
	}
	for name, in := range cases {
		if _, err := ReadSnapshot(bytes.NewReader(in)); !errors.Is(err, ErrSnapshotFormat) {
			t.Errorf("%s: got %v, want ErrSnapshotFormat", name, err)
		}
	}

	// The tag must not leak into acceptance of prior-format streams: a bare
	// gob stream (the pre-versioned layout) is rejected, not misread.
	var bare bytes.Buffer
	if err := gob.NewEncoder(&bare).Encode(net.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(&bare); !errors.Is(err, ErrSnapshotFormat) {
		t.Errorf("unversioned gob stream: got %v, want ErrSnapshotFormat", err)
	}
}

func TestSnapshotIsACopy(t *testing.T) {
	net := trainedNet(t)
	snap := net.Snapshot()
	before := net.Predict([]float64{0.5, 0.5, 0.5})
	snap.Weights[0][0] += 100 // mutate the snapshot
	after := net.Predict([]float64{0.5, 0.5, 0.5})
	if before != after {
		t.Fatal("snapshot shares storage with the live network")
	}
}
