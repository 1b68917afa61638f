package perfmodel

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
)

// Symbolic regression by genetic programming (Koza, ref [14]; the paper's
// multi-parameter modelling approach, ref [13]): a population of expression
// trees over the workload parameters evolves by tournament selection,
// subtree crossover, and mutation toward minimal validation error, with a
// parsimony penalty to keep models legible.

type opKind uint8

const (
	opConst opKind = iota
	opVar
	opAdd
	opSub
	opMul
	opDiv // protected: x/y with |y| < 1e-12 yields x
	opLog // log1p(|x|)
)

// node is one expression-tree node.
type node struct {
	op   opKind
	val  float64 // opConst
	idx  int     // opVar
	l, r *node   // children (r nil for unary ops)
}

func (n *node) eval(x []float64) (float64, error) {
	switch n.op {
	case opConst:
		return n.val, nil
	case opVar:
		if n.idx < 0 || n.idx >= len(x) {
			return 0, fmt.Errorf("perfmodel: expression references feature x%d, vector has %d", n.idx, len(x))
		}
		return x[n.idx], nil
	case opAdd:
		l, r, err := n.evalChildren(x)
		return l + r, err
	case opSub:
		l, r, err := n.evalChildren(x)
		return l - r, err
	case opMul:
		l, r, err := n.evalChildren(x)
		return l * r, err
	case opDiv:
		l, r, err := n.evalChildren(x)
		if err != nil {
			return 0, err
		}
		if math.Abs(r) < 1e-12 {
			return l, nil // protected division
		}
		return l / r, nil
	case opLog:
		l, err := n.l.eval(x)
		return math.Log1p(math.Abs(l)), err
	}
	return 0, fmt.Errorf("perfmodel: bad op %d in expression tree", n.op)
}

func (n *node) evalChildren(x []float64) (l, r float64, err error) {
	if l, err = n.l.eval(x); err != nil {
		return 0, 0, err
	}
	r, err = n.r.eval(x)
	return l, r, err
}

func (n *node) size() int {
	if n == nil {
		return 0
	}
	return 1 + n.l.size() + n.r.size()
}

func (n *node) clone() *node {
	if n == nil {
		return nil
	}
	c := *n
	c.l, c.r = n.l.clone(), n.r.clone()
	return &c
}

// nodes appends every node in the subtree to dst (pre-order).
func (n *node) nodes(dst []*node) []*node {
	if n == nil {
		return dst
	}
	dst = append(dst, n)
	dst = n.l.nodes(dst)
	return n.r.nodes(dst)
}

func (n *node) render(names []string) string {
	switch n.op {
	case opConst:
		return fmt.Sprintf("%.4g", n.val)
	case opVar:
		if n.idx < len(names) {
			return names[n.idx]
		}
		return fmt.Sprintf("x%d", n.idx)
	case opAdd:
		return "(" + n.l.render(names) + " + " + n.r.render(names) + ")"
	case opSub:
		return "(" + n.l.render(names) + " - " + n.r.render(names) + ")"
	case opMul:
		return "(" + n.l.render(names) + "*" + n.r.render(names) + ")"
	case opDiv:
		return "(" + n.l.render(names) + "/" + n.r.render(names) + ")"
	case opLog:
		return "log1p(" + n.l.render(names) + ")"
	}
	return "?"
}

// SymbolicModel is an evolved closed-form performance model. The raw tree
// output is linearly calibrated (y = a·tree(x) + b by least squares) so the
// GP search concentrates on structure rather than constants.
type SymbolicModel struct {
	root  *node
	scale float64
	shift float64
	names []string
	// Fitness is the training objective value the model achieved.
	Fitness float64
}

// Predict implements Model.
func (m *SymbolicModel) Predict(x []float64) (float64, error) {
	v, err := m.root.eval(x)
	if err != nil {
		return 0, err
	}
	return m.scale*v + m.shift, nil
}

// String implements Model.
func (m *SymbolicModel) String() string {
	return fmt.Sprintf("%.4g·%s + %.4g", m.scale, m.root.render(m.names), m.shift)
}

// Size returns the expression-tree node count.
func (m *SymbolicModel) Size() int { return m.root.size() }

// SymbolicOptions tunes the genetic program. Zero values take defaults.
type SymbolicOptions struct {
	// Population and Generations size the search (defaults 300, 80).
	Population, Generations int
	// MaxDepth bounds tree depth (default 5).
	MaxDepth int
	// TournamentK is the selection tournament size (default 5).
	TournamentK int
	// Parsimony penalises tree size in the fitness (default 1e-3).
	Parsimony float64
	// Seed drives all randomness.
	Seed int64
	// FeatureNames labels variables in String output.
	FeatureNames []string
	// Restarts runs independent populations and keeps the best (default 3).
	Restarts int
}

func (o SymbolicOptions) withDefaults() SymbolicOptions {
	if o.Population <= 0 {
		o.Population = 300
	}
	if o.Generations <= 0 {
		o.Generations = 80
	}
	if o.MaxDepth <= 0 {
		o.MaxDepth = 5
	}
	if o.TournamentK <= 0 {
		o.TournamentK = 5
	}
	if o.Parsimony == 0 {
		o.Parsimony = 1e-3
	}
	if o.Restarts <= 0 {
		o.Restarts = 3
	}
	return o
}

// FitSymbolic evolves a symbolic model for the training set. X rows are
// feature vectors of one common length; y the measured times.
func FitSymbolic(x [][]float64, y []float64, opts SymbolicOptions) (*SymbolicModel, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, fmt.Errorf("perfmodel: %d samples for %d targets", len(x), len(y))
	}
	nvars := len(x[0])
	if nvars == 0 {
		return nil, fmt.Errorf("perfmodel: empty feature vectors")
	}
	for i, row := range x {
		if len(row) != nvars {
			return nil, fmt.Errorf("perfmodel: sample %d has %d features, sample 0 has %d", i, len(row), nvars)
		}
	}
	opts = opts.withDefaults()
	fd := newFitData(x, y)
	// Restarts share only the read-only training set: each has its own
	// seed, RNG and scratch, so they run concurrently and the winner is
	// still the first best in restart order.
	runs := make([]*SymbolicModel, opts.Restarts)
	var wg sync.WaitGroup
	for r := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs[r] = runGP(fd, opts, opts.Seed+int64(r)*7919)
		}()
	}
	wg.Wait()
	best := runs[0]
	for _, m := range runs[1:] {
		if m.Fitness < best.Fitness {
			best = m
		}
	}
	return best, nil
}

type individual struct {
	tree    *node
	fitness float64
	scale   float64
	shift   float64
}

func runGP(fd *fitData, opts SymbolicOptions, seed int64) *SymbolicModel {
	rng := rand.New(rand.NewSource(seed))
	nvars := len(fd.cols)
	var s scratch
	evalInd := func(ind *individual) {
		ind.scale, ind.shift, ind.fitness = s.score(ind.tree, fd)
		ind.fitness += opts.Parsimony * float64(ind.tree.size())
	}

	pop := make([]individual, opts.Population)
	for i := range pop {
		pop[i].tree = randTree(rng, nvars, 1+rng.Intn(opts.MaxDepth))
		evalInd(&pop[i])
	}
	sortPop(pop)

	next := make([]individual, 0, opts.Population)
	for g := 0; g < opts.Generations; g++ {
		next = next[:0]
		// Elitism: carry the best two unchanged.
		next = append(next, individual{tree: pop[0].tree.clone()}, individual{tree: pop[1].tree.clone()})
		for len(next) < opts.Population {
			a := tournament(rng, pop, opts.TournamentK)
			switch p := rng.Float64(); {
			case p < 0.65: // crossover
				b := tournament(rng, pop, opts.TournamentK)
				child := crossover(rng, a.tree, b.tree)
				next = append(next, individual{tree: prune(child, opts.MaxDepth, rng, nvars)})
			case p < 0.90: // subtree mutation
				child := a.tree.clone()
				mutateSubtree(rng, child, nvars, opts.MaxDepth)
				next = append(next, individual{tree: child})
			default: // point mutation
				child := a.tree.clone()
				mutatePoint(rng, child, nvars)
				next = append(next, individual{tree: child})
			}
		}
		pop, next = next, pop
		for i := range pop {
			evalInd(&pop[i])
		}
		sortPop(pop)
	}
	bestInd := pop[0]
	return &SymbolicModel{
		root:    bestInd.tree,
		scale:   bestInd.scale,
		shift:   bestInd.shift,
		names:   opts.FeatureNames,
		Fitness: bestInd.fitness,
	}
}

// Fitness evaluation runs each candidate as a compiled column program: the
// tree is flattened into postfix instructions once per scoring, and each
// instruction runs over every training sample before the next one starts.
// A sample sees exactly the float64 operations, in the order, that
// node.eval applies to it, so outputs, fitness and the GP trajectory are
// bit-for-bit those of the tree walk.

// instr is one postfix instruction of a compiled expression.
type instr struct {
	op  opKind
	idx int     // opVar
	val float64 // opConst
}

// compile appends t in postfix order to code and returns the peak operand
// stack depth the program needs. It rejects variable indices outside
// [0, nvars) and unknown ops, so a compiled program evaluates without an
// error path.
func compile(code []instr, t *node, nvars int) ([]instr, int, error) {
	switch t.op {
	case opConst:
		return append(code, instr{op: opConst, val: t.val}), 1, nil
	case opVar:
		if t.idx < 0 || t.idx >= nvars {
			return code, 0, fmt.Errorf("perfmodel: expression references feature x%d, vector has %d", t.idx, nvars)
		}
		return append(code, instr{op: opVar, idx: t.idx}), 1, nil
	case opLog:
		code, depth, err := compile(code, t.l, nvars)
		if err != nil {
			return code, 0, err
		}
		return append(code, instr{op: opLog}), depth, nil
	case opAdd, opSub, opMul, opDiv:
		code, dl, err := compile(code, t.l, nvars)
		if err != nil {
			return code, 0, err
		}
		code, dr, err := compile(code, t.r, nvars)
		if err != nil {
			return code, 0, err
		}
		return append(code, instr{op: t.op}), max(dl, dr+1), nil
	}
	return code, 0, fmt.Errorf("perfmodel: bad op %d in expression tree", t.op)
}

// fitData is the training set of one FitSymbolic call in the layout the
// column programs read, plus every calibration term that depends on y
// alone. Its restarts share it read-only.
type fitData struct {
	cols    [][]float64 // cols[j][i] is feature j of sample i
	y       []float64
	w       []float64 // relative weight 1/max(|y|, floor)² per sample
	sw, swY float64   // Σw and Σw·y in sample order
}

func newFitData(x [][]float64, y []float64) *fitData {
	fd := &fitData{cols: make([][]float64, len(x[0])), y: y, w: make([]float64, len(y))}
	for j := range fd.cols {
		col := make([]float64, len(x))
		for i, row := range x {
			col[i] = row[j]
		}
		fd.cols[j] = col
	}
	yScale := meanAbs(y)
	if yScale == 0 {
		yScale = 1
	}
	floor := 1e-3 * yScale
	if floor <= 0 {
		floor = 1
	}
	for i := range y {
		v := math.Abs(y[i])
		if v < floor {
			v = floor
		}
		w := 1 / (v * v)
		fd.w[i] = w
		fd.sw += w
		fd.swY += w * y[i]
	}
	return fd
}

// scratch is one GP run's private evaluation state: the program buffer and
// the operand stack. Stack slot k is either a feature column or bufs[k];
// bufs grows on demand because mutated trees are not depth-bounded.
type scratch struct {
	code  []instr
	stack [][]float64
	bufs  [][]float64
}

// score compiles t and calibrates its outputs against fd. A tree that does
// not compile is simply unfit.
func (s *scratch) score(t *node, fd *fitData) (scale, shift, fitness float64) {
	code, depth, err := compile(s.code[:0], t, len(fd.cols))
	s.code = code
	if err != nil {
		return 1, 0, math.Inf(1)
	}
	return fd.calibrate(s.run(code, depth, fd))
}

// run evaluates a compiled program over every sample of fd and returns its
// output column, which stays valid until the next run.
func (s *scratch) run(code []instr, depth int, fd *fitData) []float64 {
	n := len(fd.y)
	for len(s.bufs) < depth {
		s.bufs = append(s.bufs, make([]float64, n))
		s.stack = append(s.stack, nil)
	}
	sp := 0
	for _, in := range code {
		switch in.op {
		case opConst:
			out := s.bufs[sp]
			for i := range out {
				out[i] = in.val
			}
			s.stack[sp] = out
			sp++
		case opVar:
			s.stack[sp] = fd.cols[in.idx]
			sp++
		case opLog:
			a, out := s.stack[sp-1], s.bufs[sp-1]
			a = a[:len(out)]
			for i := range out {
				out[i] = math.Log1p(math.Abs(a[i]))
			}
			s.stack[sp-1] = out
		default:
			sp--
			a, b, out := s.stack[sp-1], s.stack[sp], s.bufs[sp-1]
			a, b = a[:len(out)], b[:len(out)]
			switch in.op {
			case opAdd:
				for i := range out {
					out[i] = a[i] + b[i]
				}
			case opSub:
				for i := range out {
					out[i] = a[i] - b[i]
				}
			case opMul:
				for i := range out {
					out[i] = a[i] * b[i]
				}
			case opDiv:
				for i := range out {
					if r := b[i]; math.Abs(r) < 1e-12 {
						out[i] = a[i] // protected division
					} else {
						out[i] = a[i] / r
					}
				}
			}
			s.stack[sp-1] = out
		}
	}
	return s.stack[0]
}

// calibrate finds the weighted least-squares (scale, shift) for a tree's
// output column against y — weighted by inverse squared magnitude, so the
// fitness is a *relative* RMSE aligned with the MAPE the models are judged
// by — and returns them with that fitness. It allocates nothing.
func (fd *fitData) calibrate(outs []float64) (scale, shift, fitness float64) {
	for _, v := range outs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// A tree that cannot be evaluated is simply unfit.
			return 1, 0, math.Inf(1)
		}
	}
	y, ws := fd.y, fd.w
	sw, swY := fd.sw, fd.swY
	var swT, swTT, swTY float64
	for i, v := range outs {
		w := ws[i]
		swT += w * v
		swTT += w * v * v
		swTY += w * v * y[i]
	}
	den := sw*swTT - swT*swT
	if math.Abs(den) < 1e-30 {
		// Constant tree: best fit is the weighted mean.
		scale, shift = 0, swY/sw
	} else {
		scale = (sw*swTY - swT*swY) / den
		shift = (swY - scale*swT) / sw
	}
	var sse float64
	for i := range outs {
		d := scale*outs[i] + shift - y[i]
		sse += ws[i] * d * d
	}
	// Normalise by sample count, not by Σw: each sample contributes its
	// squared *relative* error with unit weight, making the fitness an
	// RMS relative error commensurate with MAPE.
	relRMSE := math.Sqrt(sse / float64(len(y)))
	if math.IsNaN(relRMSE) || math.IsInf(relRMSE, 0) {
		return 1, 0, math.Inf(1)
	}
	return scale, shift, relRMSE
}

func meanAbs(y []float64) float64 {
	s := 0.0
	for _, v := range y {
		s += math.Abs(v)
	}
	return s / float64(len(y))
}

func sortPop(pop []individual) {
	sort.SliceStable(pop, func(i, j int) bool { return pop[i].fitness < pop[j].fitness })
}

func tournament(rng *rand.Rand, pop []individual, k int) *individual {
	best := &pop[rng.Intn(len(pop))]
	for i := 1; i < k; i++ {
		c := &pop[rng.Intn(len(pop))]
		if c.fitness < best.fitness {
			best = c
		}
	}
	return best
}

// randTree grows a random tree of at most the given depth.
func randTree(rng *rand.Rand, nvars, depth int) *node {
	if depth <= 1 || rng.Float64() < 0.3 {
		if rng.Float64() < 0.6 {
			return &node{op: opVar, idx: rng.Intn(nvars)}
		}
		return &node{op: opConst, val: randConst(rng)}
	}
	op := []opKind{opAdd, opSub, opMul, opMul, opDiv, opLog}[rng.Intn(6)]
	n := &node{op: op, l: randTree(rng, nvars, depth-1)}
	if op != opLog {
		n.r = randTree(rng, nvars, depth-1)
	}
	return n
}

func randConst(rng *rand.Rand) float64 {
	// Log-uniform magnitudes cover the decades performance constants span.
	return math.Pow(10, rng.Float64()*4-2) * signOf(rng)
}

func signOf(rng *rand.Rand) float64 {
	if rng.Float64() < 0.5 {
		return -1
	}
	return 1
}

// crossover replaces a random subtree of a clone of a with a random subtree
// of b.
func crossover(rng *rand.Rand, a, b *node) *node {
	child := a.clone()
	target := pick(rng, child)
	donor := pick(rng, b).clone()
	*target = *donor
	return child
}

func pick(rng *rand.Rand, t *node) *node {
	ns := t.nodes(nil)
	return ns[rng.Intn(len(ns))]
}

func mutateSubtree(rng *rand.Rand, t *node, nvars, maxDepth int) {
	target := pick(rng, t)
	*target = *randTree(rng, nvars, 1+rng.Intn(maxDepth-1))
}

func mutatePoint(rng *rand.Rand, t *node, nvars int) {
	target := pick(rng, t)
	switch target.op {
	case opConst:
		target.val *= math.Pow(10, rng.NormFloat64()*0.3)
	case opVar:
		target.idx = rng.Intn(nvars)
	case opAdd, opSub, opMul, opDiv:
		target.op = []opKind{opAdd, opSub, opMul, opDiv}[rng.Intn(4)]
	case opLog:
		// leave unary structure intact
	}
}

// prune re-grows trees that exceed the depth bound.
func prune(t *node, maxDepth int, rng *rand.Rand, nvars int) *node {
	if depthOf(t) <= maxDepth+2 {
		return t
	}
	return randTree(rng, nvars, maxDepth)
}

func depthOf(t *node) int {
	if t == nil {
		return 0
	}
	l, r := depthOf(t.l), depthOf(t.r)
	if r > l {
		l = r
	}
	return 1 + l
}

var _ Model = (*SymbolicModel)(nil)
var _ Model = (*LinearModel)(nil)
