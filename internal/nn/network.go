package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"soteria/internal/obs"
)

// Network is an ordered stack of layers.
type Network struct {
	Layers []Layer

	// arenas is a free list of inference scratch: each concurrent
	// caller borrows its own Arena, so inference on a shared trained
	// network is race-free and allocation-free at steady state. Unlike a
	// sync.Pool, whose per-P slots and victim cache can keep several
	// warmed arenas (over 100 MiB each for a 3072-row CNN batch) alive
	// between garbage collections, the list holds at most as many arenas
	// as callers ever ran at once.
	arenaMu sync.Mutex
	arenas  []*Arena
}

// NewNetwork builds a network from layers.
func NewNetwork(layers ...Layer) *Network { return &Network{Layers: layers} }

// Forward runs the stack; train enables dropout and other
// training-only behaviour. Training passes reuse per-layer workspace
// buffers and must come from a single goroutine; inference passes
// (train=false) touch no layer state and may run concurrently.
func (n *Network) Forward(x *Matrix, train bool) *Matrix {
	if !train {
		return n.PredictInto(nil, x)
	}
	for _, l := range n.Layers {
		x = l.Forward(x, true)
	}
	return x
}

// inferArena runs the stack's inference path on scratch from ws. A
// Dense or Conv1D layer immediately followed by a ReLU is fused into
// one pass (the GEMM epilogue clamps the output while it is
// cache-hot), which is exact: ReLU(x) = max(x, 0) involves no
// arithmetic.
func (n *Network) inferArena(x *Matrix, ws *Arena) *Matrix {
	for i := 0; i < len(n.Layers); i++ {
		followedByReLU := false
		if i+1 < len(n.Layers) {
			_, followedByReLU = n.Layers[i+1].(*ReLU)
		}
		switch l := n.Layers[i].(type) {
		case *Dense:
			if followedByReLU {
				l.checkIn(x)
				x = l.inferInto(ws.take(x.Rows, l.Out), x, true)
				i++
				continue
			}
		case *Conv1D:
			if followedByReLU {
				x = l.inferFused(x, ws, true)
				i++
				continue
			}
		}
		if il, ok := n.Layers[i].(inferLayer); ok {
			x = il.infer(x, ws)
		} else {
			x = n.Layers[i].Forward(x, false)
		}
	}
	return x
}

// PredictInto runs inference and copies the output into dst, which
// must have the output's shape (or be nil, in which case a fresh
// matrix is allocated). With a caller-reused dst, a steady-state call
// performs no allocation. Safe for concurrent use on a shared trained
// network.
func (n *Network) PredictInto(dst, x *Matrix) *Matrix {
	ws := n.acquireArena()
	y := n.inferArena(x, ws)
	dst = copyOut(dst, y)
	n.releaseArena(ws)
	return dst
}

// acquireArena checks an inference workspace out of the free list.
func (n *Network) acquireArena() *Arena {
	n.arenaMu.Lock()
	defer n.arenaMu.Unlock()
	if k := len(n.arenas); k > 0 {
		ws := n.arenas[k-1]
		n.arenas = n.arenas[:k-1]
		return ws
	}
	return new(Arena)
}

// releaseArena returns a workspace to the free list.
func (n *Network) releaseArena(ws *Arena) {
	ws.reset()
	n.arenaMu.Lock()
	n.arenas = append(n.arenas, ws)
	n.arenaMu.Unlock()
}

// copyOut copies y into dst, allocating when dst is nil and rejecting
// shape mismatches.
func copyOut(dst, y *Matrix) *Matrix {
	if dst == nil {
		dst = NewMatrix(y.Rows, y.Cols)
	} else if dst.Rows != y.Rows || dst.Cols != y.Cols {
		panic(fmt.Sprintf("nn: PredictInto dst is %dx%d, want %dx%d", dst.Rows, dst.Cols, y.Rows, y.Cols))
	}
	copy(dst.Data, y.Data)
	return dst
}

// PredictApply runs inference on x and hands the raw output — arena
// scratch owned by the network — to visit, skipping PredictInto's
// copy-out for callers that only reduce or transform the result. The
// matrix passed to visit is valid only until visit returns; visit may
// modify it in place (e.g. a softmax over logits). Safe for concurrent
// use on a shared trained network.
func (n *Network) PredictApply(x *Matrix, visit func(y *Matrix)) {
	ws := n.acquireArena()
	visit(n.inferArena(x, ws))
	n.releaseArena(ws)
}

// Backward propagates the output gradient through the stack,
// accumulating parameter gradients. The first layer's input gradient
// has no consumer, so layers that can skip producing it (paramBackward)
// do.
func (n *Network) Backward(grad *Matrix) {
	for i := len(n.Layers) - 1; i > 0; i-- {
		grad = n.Layers[i].Backward(grad)
	}
	if len(n.Layers) == 0 {
		return
	}
	if pb, ok := n.Layers[0].(paramBackward); ok {
		pb.backwardParams(grad)
		return
	}
	n.Layers[0].Backward(grad)
}

// Params returns every trainable parameter in the stack.
func (n *Network) Params() []*Param {
	var out []*Param
	for _, l := range n.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// NumParams returns the total number of trainable scalars.
func (n *Network) NumParams() int {
	total := 0
	for _, p := range n.Params() {
		total += len(p.W.Data)
	}
	return total
}

// TrainConfig controls Trainer.Fit.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	// Seed shuffles batches deterministically.
	Seed int64
	// OnEpoch, when non-nil, observes every epoch's mean loss (for
	// logging or early stopping via returned false).
	OnEpoch func(epoch int, loss float64) bool
	// ValFraction, when positive, holds out that share of the training
	// rows as a validation set and enables early stopping: training
	// halts after Patience epochs without validation improvement, and
	// the best-validation weights are restored.
	ValFraction float64
	// Patience is the early-stopping tolerance in epochs (default 10
	// when ValFraction > 0).
	Patience int
	// Hooks observes each epoch's mean loss and wall time (nil = off).
	// Observations are write-only — they never feed back into training,
	// so fitted weights are bit-identical with hooks on or off. Epoch
	// timing is observed at epoch granularity only; per-batch and
	// per-layer code stays clock-free (see the obshot analyzer).
	Hooks *obs.TrainHooks
}

// Trainer couples a network with an objective and an optimizer.
type Trainer struct {
	Net  *Network
	Loss Loss
	Opt  Optimizer

	// Minibatch gather and loss-gradient buffers, reused across
	// batches so a steady-state epoch allocates nothing.
	bx, by *Matrix
	grad   *Matrix
}

// computeLoss evaluates the objective, reusing the trainer's gradient
// buffer when the loss supports the allocation-free path.
func (t *Trainer) computeLoss(pred, target *Matrix) (float64, *Matrix) {
	if li, ok := t.Loss.(lossInto); ok {
		grad := ensure(&t.grad, pred.Rows, pred.Cols)
		return li.ComputeInto(pred, target, grad), grad
	}
	return t.Loss.Compute(pred, target)
}

// Fit trains on (X, Y) and returns the mean loss per epoch.
func (t *Trainer) Fit(x, y *Matrix, cfg TrainConfig) ([]float64, error) {
	if x.Rows != y.Rows {
		return nil, fmt.Errorf("nn: X has %d rows, Y has %d", x.Rows, y.Rows)
	}
	if x.Rows == 0 {
		return nil, fmt.Errorf("nn: empty training set")
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	if cfg.BatchSize <= 0 || cfg.BatchSize > x.Rows {
		cfg.BatchSize = x.Rows
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	idx := make([]int, x.Rows)
	for i := range idx {
		idx[i] = i
	}

	// Optional validation split for early stopping.
	var valX, valY *Matrix
	if cfg.ValFraction > 0 && cfg.ValFraction < 1 {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		nVal := int(float64(len(idx)) * cfg.ValFraction)
		if nVal >= 1 && nVal < len(idx) {
			valX = gatherRows(x, idx[:nVal])
			valY = gatherRows(y, idx[:nVal])
			idx = idx[nVal:]
		}
	}
	if cfg.Patience <= 0 {
		cfg.Patience = 10
	}
	if cfg.BatchSize > len(idx) {
		cfg.BatchSize = len(idx)
	}

	losses := make([]float64, 0, cfg.Epochs)
	params := t.Net.Params()
	bestVal := math.Inf(1)
	var bestWeights []float64
	sinceBest := 0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		epochStart := cfg.Hooks.StartEpoch()
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var epochLoss float64
		batches := 0
		for start := 0; start < len(idx); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			bx := gatherRowsInto(&t.bx, x, idx[start:end])
			by := gatherRowsInto(&t.by, y, idx[start:end])
			pred := t.Net.Forward(bx, true)
			loss, grad := t.computeLoss(pred, by)
			t.Net.Backward(grad)
			t.Opt.Step(params)
			epochLoss += loss
			batches++
		}
		epochLoss /= float64(batches)
		losses = append(losses, epochLoss)
		cfg.Hooks.EndEpoch(epochStart, epochLoss)
		if cfg.OnEpoch != nil && !cfg.OnEpoch(epoch, epochLoss) {
			break
		}
		if valX != nil {
			valLoss, _ := t.computeLoss(t.Net.PredictInto(nil, valX), valY)
			if valLoss < bestVal {
				bestVal = valLoss
				bestWeights = t.Net.SaveWeights()
				sinceBest = 0
			} else if sinceBest++; sinceBest >= cfg.Patience {
				break
			}
		}
	}
	if bestWeights != nil {
		if err := t.Net.LoadWeights(bestWeights); err != nil {
			return nil, fmt.Errorf("nn: restore best weights: %w", err)
		}
	}
	return losses, nil
}

// Predict runs inference (dropout disabled).
func (n *Network) Predict(x *Matrix) *Matrix { return n.Forward(x, false) }

func gatherRows(m *Matrix, idx []int) *Matrix {
	out := NewMatrix(len(idx), m.Cols)
	for i, r := range idx {
		copy(out.Row(i), m.Row(r))
	}
	return out
}

// gatherRowsInto is gatherRows onto a reusable buffer.
func gatherRowsInto(dst **Matrix, m *Matrix, idx []int) *Matrix {
	out := ensure(dst, len(idx), m.Cols)
	for i, r := range idx {
		copy(out.Row(i), m.Row(r))
	}
	return out
}

// SaveWeights flattens every parameter into one slice (for
// persistence); LoadWeights restores them into an identically shaped
// network.
func (n *Network) SaveWeights() []float64 {
	var out []float64
	for _, p := range n.Params() {
		out = append(out, p.W.Data...)
	}
	return out
}

// LoadWeights restores weights produced by SaveWeights. It fails if the
// total parameter count differs.
func (n *Network) LoadWeights(w []float64) error {
	if len(w) != n.NumParams() {
		return fmt.Errorf("nn: weight count %d does not match network's %d", len(w), n.NumParams())
	}
	off := 0
	for _, p := range n.Params() {
		copy(p.W.Data, w[off:off+len(p.W.Data)])
		off += len(p.W.Data)
	}
	return nil
}
