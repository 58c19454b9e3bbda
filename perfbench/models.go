package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro"
)

// Model roles in the closed-loop workloads.
const (
	roleTable1 = "table1" // a Table-I stand-in, characterized
	roleHalf   = "half"   // a reciprocal variant (half-size path)
	roleSparse = "sparse" // the port-local model (sparse backend)
)

// modelDef is one benchmark model: a Table-I style spec and its role.
type modelDef struct {
	Key  string
	Role string
	Spec repro.CaseSpec
}

// reference is the oracle's answer for one model, pinned to the model's
// realization by its hash.
type reference struct {
	Key       string    `json:"key"`
	Order     int       `json:"order"`
	Ports     int       `json:"ports"`
	Hash      string    `json:"hash"`
	Crossings []float64 `json:"crossings"`
}

// suite is the set of models a run uses and their references.
type suite struct {
	// models are characterized by table1, in this order before shuffling.
	models []modelDef
	// fig6 is the Case-5 stand-in solved at Threads 1 (a key of models).
	fig6 string
	// enforce are the keys enforce runs, all of them violating stand-ins.
	enforce []string
	// fig6Reps is the number of T01 solves per table1 pass.
	fig6Reps int
	refs     map[string]reference
	// daemon sizes the daemon workload's traffic.
	daemon daemonSizes
}

func (s *suite) def(key string) modelDef {
	for _, d := range s.models {
		if d.Key == key {
			return d
		}
	}
	panic("perfbench: unknown model " + key)
}

// shrink is the n/5 rule of bench_test.go: same ports, calibrated peak and
// seed on a fifth of the order.
func shrink(c repro.CaseSpec) repro.CaseSpec {
	c.N /= 5
	if c.P > c.N {
		c.P = c.N
	}
	return c
}

// suiteModels lists the full-size benchmark models: the twelve Table-I
// stand-ins, the four reciprocal variants, and one port-local model on
// which BackendAuto picks the sparse backend.
func suiteModels() []modelDef {
	var out []modelDef
	for _, c := range repro.TableICases() {
		out = append(out, modelDef{fmt.Sprintf("case%02d", c.ID), roleTable1, shrink(c)})
	}
	for _, c := range repro.ReciprocalTableICases() {
		out = append(out, modelDef{fmt.Sprintf("recip%03d", c.ID), roleHalf, shrink(c)})
	}
	sparse := repro.CaseSpec{ID: 200, N: 1000, P: 20, TargetPeak: 1.05, Seed: 20, SparsePorts: 2}
	return append(out, modelDef{"sparse200", roleSparse, sparse})
}

// fullSuite is the suite every timed run uses.
func fullSuite(refs map[string]reference) *suite {
	return &suite{
		models:   suiteModels(),
		fig6:     "case05",
		enforce:  []string{"case01", "case02", "case03", "case08", "case11"},
		fig6Reps: 3,
		refs:     refs,
		daemon:   fullDaemonSizes,
	}
}

// loadRefs reads refs.json.
func loadRefs(path string) (map[string]reference, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read references: %w", err)
	}
	var list []reference
	if err := json.Unmarshal(data, &list); err != nil {
		return nil, fmt.Errorf("decode %s: %w", path, err)
	}
	refs := make(map[string]reference, len(list))
	for _, r := range list {
		refs[r.Key] = r
	}
	return refs, nil
}

// modelHash is a SHA-256 over every number of the realization (ports,
// D, and each column's blocks and residues), bit for bit.
func modelHash(m *repro.Model) string {
	h := sha256.New()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	putInt := func(v int) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	dense := func(d *repro.Dense) {
		putInt(d.Rows)
		putInt(d.Cols)
		for _, v := range d.Data {
			put(v)
		}
	}
	putInt(m.P)
	dense(m.D)
	for _, c := range m.Cols {
		putInt(len(c.Blocks))
		for _, bl := range c.Blocks {
			putInt(bl.Size)
			put(bl.Sigma)
			put(bl.Omega)
			put(bl.B1)
			put(bl.B2)
		}
		dense(c.C)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// modelCache loads benchmark models from a gob cache under dir, building
// any that are missing with the checkout's own generator.
type modelCache struct{ dir string }

func (c modelCache) path(d modelDef) string {
	return filepath.Join(c.dir, fmt.Sprintf("%s_n%d_p%d.gob", d.Key, d.Spec.N, d.Spec.P))
}

// load returns the model for d, verified against its reference hash. A
// cached file that fails to decode or to match is rebuilt once; a freshly
// built model that does not match its reference is an error, so no run
// measures models other than the ones the references were computed on.
func (c modelCache) load(d modelDef, ref reference) (*repro.Model, error) {
	if m, err := readModel(c.path(d)); err == nil && modelHash(m) == ref.Hash {
		return m, nil
	}
	m, err := repro.BuildCase(d.Spec)
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", d.Key, err)
	}
	if got := modelHash(m); got != ref.Hash {
		return nil, fmt.Errorf("model %s: hash %s does not match reference %s (generator changed?)", d.Key, got, ref.Hash)
	}
	if err := writeModel(c.path(d), m); err != nil {
		return nil, fmt.Errorf("cache %s: %w", d.Key, err)
	}
	return m, nil
}

// loadAll loads the keyed models with nproc loaders and returns them by
// key, with the wall time the load took.
func (c modelCache) loadAll(s *suite, keys []string, workers int) (map[string]*repro.Model, time.Duration, error) {
	start := time.Now()
	out := make(map[string]*repro.Model, len(keys))
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	sem := make(chan struct{}, max(workers, 1))
	for _, k := range keys {
		d := s.def(k)
		ref, ok := s.refs[k]
		if !ok {
			return nil, 0, fmt.Errorf("no reference for model %s", k)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			m, err := c.load(d, ref)
			mu.Lock()
			defer mu.Unlock()
			if err != nil && firstErr == nil {
				firstErr = err
			}
			out[d.Key] = m
		}()
	}
	wg.Wait()
	return out, time.Since(start), firstErr
}

func readModel(path string) (*repro.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var m repro.Model
	if err := gob.NewDecoder(f).Decode(&m); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

func writeModel(path string, m *repro.Model) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".model-*")
	if err != nil {
		return err
	}
	if err := gob.NewEncoder(tmp).Encode(m); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// oracleCrossings computes a model's crossings with the dense 2n×2n
// Hamiltonian eigensolution (Hamiltonian.FullImagEigs).
func oracleCrossings(m *repro.Model) ([]float64, error) {
	op, err := repro.NewHamiltonian(m, repro.Scattering)
	if err != nil {
		return nil, err
	}
	return op.FullImagEigs(0)
}

// buildRefs builds every model of defs and computes its reference.
func buildRefs(defs []modelDef, workers int) ([]reference, error) {
	out := make([]reference, len(defs))
	errs := make([]error, len(defs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, max(workers, 1))
	for i, d := range defs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			m, err := repro.BuildCase(d.Spec)
			if err != nil {
				errs[i] = fmt.Errorf("build %s: %w", d.Key, err)
				return
			}
			cr, err := oracleCrossings(m)
			if err != nil {
				errs[i] = fmt.Errorf("oracle %s: %w", d.Key, err)
				return
			}
			out[i] = reference{Key: d.Key, Order: m.Order(), Ports: m.P, Hash: modelHash(m), Crossings: cr}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// writeRefs regenerates perfbench/refs.json under root.
func writeRefs(root string, log io.Writer) error {
	refs, err := buildRefs(suiteModels(), 2)
	if err != nil {
		return err
	}
	for _, r := range refs {
		fmt.Fprintf(log, "%s n=%d p=%d nlambda=%d hash=%s\n", r.Key, r.Order, r.Ports, len(r.Crossings), r.Hash)
	}
	data, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, "perfbench", "refs.json"), append(data, '\n'), 0o644)
}

// checkCrossings compares crossings against a reference: the count must
// match and each crossing must lie within 1e-9·ω_max of its reference.
func checkCrossings(key string, got []float64, omegaMax float64, ref reference) error {
	if len(got) != len(ref.Crossings) {
		return fmt.Errorf("%s: Nλ=%d, reference %d", key, len(got), len(ref.Crossings))
	}
	tol := 1e-9 * omegaMax
	for i, w := range got {
		if d := math.Abs(w - ref.Crossings[i]); !(d <= tol) {
			return fmt.Errorf("%s: crossing %d at %.12e, reference %.12e (|Δ|=%.3g > %.3g)", key, i, w, ref.Crossings[i], d, tol)
		}
	}
	return nil
}
