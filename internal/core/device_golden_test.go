package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/bandwidth"
	"repro/internal/data"
	"repro/internal/gpu"
	"repro/internal/kernel"
)

// Device-pipeline golden tests: Program 4, the tiled pipeline and the
// fleet share, functional and planning mode, pinned bit for bit in
// testdata/device_golden.json. Every float is stored as its Float64bits,
// so a refactor of the device code that changes any selection, score,
// modelled second, tally or memory figure fails here. Refresh, after an
// intended change only, with
//
//	go test ./internal/core -run TestGoldenDevicePipelines -update

// deviceGoldenEntry is one pinned run. Selections fill the result
// fields; device reports, fleet results and plans fill their own.
type deviceGoldenEntry struct {
	Case string `json:"case"`
	N    int    `json:"n"`
	K    int    `json:"k"`
	Seed int64  `json:"seed,omitempty"`

	Index  int      `json:"index"`
	H      uint64   `json:"h,omitempty"`
	CV     uint64   `json:"cv,omitempty"`
	Scores []uint64 `json:"scores,omitempty"`

	// Chunk is the tiled pipeline's chunk size; Devices the fleet size or
	// the planned device count.
	Chunk   int `json:"chunk,omitempty"`
	Devices int `json:"devices,omitempty"`

	ModelSeconds  uint64            `json:"model_seconds,omitempty"`
	MainTally     *gpu.Tally        `json:"main_tally,omitempty"`
	Mem           *gpu.MemInfo      `json:"mem,omitempty"`
	TimeByLabel   map[string]uint64 `json:"time_by_label,omitempty"`
	TimeByKernel  map[string]uint64 `json:"time_by_kernel,omitempty"`
	DeviceSeconds []uint64          `json:"device_seconds,omitempty"`
	MemPeaks      []int64           `json:"mem_peaks,omitempty"`

	PlanSeconds uint64     `json:"plan_seconds,omitempty"`
	KernelTally *gpu.Tally `json:"kernel_tally,omitempty"`

	// OOM marks a plan past its memory wall: the error wraps
	// gpu.ErrOutOfMemory and no other field is stored.
	OOM bool `json:"oom,omitempty"`
}

func f64bits(v float64) uint64 { return math.Float64bits(v) }

func bitsSlice(vs []float64) []uint64 {
	out := make([]uint64, len(vs))
	for i, v := range vs {
		out[i] = f64bits(v)
	}
	return out
}

func bitsMap(m map[string]float64) map[string]uint64 {
	out := make(map[string]uint64, len(m))
	for k, v := range m {
		out[k] = f64bits(v)
	}
	return out
}

func (e *deviceGoldenEntry) setResult(r bandwidth.Result) {
	e.Index, e.H, e.CV, e.Scores = r.Index, f64bits(r.H), f64bits(r.CV), bitsSlice(r.Scores)
}

func (e *deviceGoldenEntry) setReport(rep *GPUReport) {
	tally, mem := rep.MainTally, rep.Mem
	e.ModelSeconds = f64bits(rep.ModelSeconds)
	e.MainTally, e.Mem = &tally, &mem
	e.TimeByLabel, e.TimeByKernel = bitsMap(rep.TimeByLabel), bitsMap(rep.TimeByKernel)
}

func (e *deviceGoldenEntry) setPlan(p Plan, err error) error {
	if err != nil {
		if !errors.Is(err, gpu.ErrOutOfMemory) {
			return fmt.Errorf("%s n=%d: want an error wrapping gpu.ErrOutOfMemory, got %w", e.Case, e.N, err)
		}
		e.OOM = true
		return nil
	}
	tally, mem := p.KernelTally, p.Mem
	e.PlanSeconds = f64bits(p.Seconds)
	e.Mem, e.KernelTally = &mem, &tally
	e.TimeByLabel = bitsMap(p.TimeByLabel)
	return nil
}

// currentDeviceGolden runs every pinned device configuration.
func currentDeviceGolden(t *testing.T) []deviceGoldenEntry {
	t.Helper()
	ctx := context.Background()
	gpuCases := []struct {
		name string
		opt  GPUOptions
	}{
		{"gpu/epanechnikov", GPUOptions{}},
		{"gpu/epanechnikov-plain", GPUOptions{Uncompensated: true}},
		{"gpu/uniform", GPUOptions{Kernel: kernel.Uniform}},
		{"gpu/uniform-plain", GPUOptions{Kernel: kernel.Uniform, Uncompensated: true}},
		{"gpu/triangular", GPUOptions{Kernel: kernel.Triangular}},
		{"gpu/triangular-plain", GPUOptions{Kernel: kernel.Triangular, Uncompensated: true}},
		{"gpu/no-index-switch", GPUOptions{NoIndexSwitch: true}},
		{"gpu/index-argmin", GPUOptions{UseIndexArgMin: true}},
	}
	var out []deviceGoldenEntry
	for _, c := range goldenCases {
		d := data.GeneratePaper(c.n, c.seed)
		g, err := bandwidth.DefaultGrid(d.X, c.k)
		if err != nil {
			t.Fatal(err)
		}
		entry := func(name string) deviceGoldenEntry {
			return deviceGoldenEntry{Case: name, N: c.n, K: c.k, Seed: c.seed}
		}
		for _, gc := range gpuCases {
			opt := gc.opt
			opt.KeepScores = true
			r, rep, err := SelectGPU(ctx, d.X, d.Y, g, opt)
			if err != nil {
				t.Fatalf("%s n=%d: %v", gc.name, c.n, err)
			}
			e := entry(gc.name)
			e.setResult(r)
			e.setReport(rep)
			out = append(out, e)
		}
		for _, chunk := range []int{64, 0} {
			r, rep, used, err := SelectGPUTiled(ctx, d.X, d.Y, g, TiledOptions{ChunkSize: chunk, KeepScores: true})
			if err != nil {
				t.Fatalf("tiled chunk=%d n=%d: %v", chunk, c.n, err)
			}
			e := entry(fmt.Sprintf("tiled/chunk=%d", chunk))
			e.Chunk = used
			e.setResult(r)
			e.setReport(rep)
			out = append(out, e)
		}
		for _, devices := range []int{1, 2, 3} {
			m, err := gpu.NewSimManager(devices, gpu.TeslaS10())
			if err != nil {
				t.Fatal(err)
			}
			mr, err := SelectGPUFleet(ctx, d.X, d.Y, g, m, GPUOptions{KeepScores: true})
			if err != nil {
				t.Fatalf("fleet devices=%d n=%d: %v", devices, c.n, err)
			}
			e := entry(fmt.Sprintf("fleet/devices=%d", devices))
			e.Devices = mr.Devices
			e.setResult(mr.Result)
			e.ModelSeconds = f64bits(mr.ModelSeconds)
			e.DeviceSeconds = bitsSlice(mr.DeviceSeconds)
			e.MemPeaks = mr.MemPeaks
			out = append(out, e)
		}
	}

	// Plans at the paper's k = 50, each at an n that fits and at an n past
	// its memory wall: 25,000 for Program 4's n×n scratch, 40,000 for two
	// devices' (n/2)×n shares, and 5,000,000 for the tiled pipeline's n×k
	// accumulators (an explicit chunk, so the failure is the allocator's).
	props := gpu.TeslaS10()
	const k = 50
	for _, n := range []int{20000, 25000} {
		p, err := PlanGPU(n, k, props)
		e := deviceGoldenEntry{Case: "plan/gpu", N: n, K: k}
		if err := e.setPlan(p, err); err != nil {
			t.Fatal(err)
		}
		out = append(out, e)
	}
	for _, pc := range []struct{ n, chunk int }{{30000, 0}, {100000, 0}, {5000000, 1024}} {
		p, used, err := PlanGPUTiled(pc.n, k, pc.chunk, props)
		e := deviceGoldenEntry{Case: fmt.Sprintf("plan/tiled/chunk=%d", pc.chunk), N: pc.n, K: k, Chunk: used}
		if err := e.setPlan(p, err); err != nil {
			t.Fatal(err)
		}
		out = append(out, e)
	}
	for _, n := range []int{20000, 40000} {
		p, used, err := PlanGPUMulti(n, k, 2, props)
		e := deviceGoldenEntry{Case: "plan/multi/devices=2", N: n, K: k, Devices: used}
		if err := e.setPlan(p, err); err != nil {
			t.Fatal(err)
		}
		out = append(out, e)
	}
	return out
}

// TestGoldenDevicePipelines pins every device pipeline — selections,
// scores, modelled seconds, tallies, memory and the time ledgers — to
// testdata/device_golden.json, bit for bit.
func TestGoldenDevicePipelines(t *testing.T) {
	path := filepath.Join("testdata", "device_golden.json")
	got := currentDeviceGolden(t)
	if *updateGolden {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d entries", path, len(got))
		return
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing device baseline %s: %v\nseed it with: go test ./internal/core -run TestGoldenDevicePipelines -update", path, err)
	}
	var want []deviceGoldenEntry
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("corrupt device baseline %s: %v", path, err)
	}
	if len(want) != len(got) {
		t.Fatalf("device baseline has %d entries, test computes %d", len(want), len(got))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			g, _ := json.Marshal(got[i])
			w, _ := json.Marshal(want[i])
			t.Errorf("device drift in %s n=%d k=%d seed=%d:\n  stored:  %s\n  current: %s",
				got[i].Case, got[i].N, got[i].K, got[i].Seed, w, g)
		}
	}
}
