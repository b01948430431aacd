// Package train implements the application-level training loop of the
// paper's evaluation framework (Fig. 7): plain SGD-with-momentum training
// of the float model followed by quantization-aware fine-tuning ("an
// additional six epochs of training employing quantization-aware
// techniques"). Training is data-parallel across worker goroutines that
// share weight storage and reduce gradients per batch.
package train

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"lightator/internal/infer"
	"lightator/internal/nn"
	"lightator/internal/oc"
)

// Dataset is the minimal data access the trainer needs.
type Dataset interface {
	// Len returns the number of samples.
	Len() int
	// Sample writes sample i's input into dst (shaped like one input) and
	// returns its label.
	Sample(i int, dst []float64) int
	// InputShape returns the per-sample tensor shape (no batch dim).
	InputShape() []int
}

// SGD is a stochastic-gradient-descent optimizer with classical momentum
// and L2 weight decay.
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64

	velocity map[*nn.Param][]float64
}

// NewSGD constructs an optimizer.
func NewSGD(lr, momentum, weightDecay float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, WeightDecay: weightDecay, velocity: map[*nn.Param][]float64{}}
}

// Step applies one update to every parameter from its accumulated
// gradient, then leaves gradients untouched (caller zeroes them).
func (o *SGD) Step(params []*nn.Param) {
	for _, p := range params {
		v, ok := o.velocity[p]
		if !ok {
			v = make([]float64, len(p.Data))
			o.velocity[p] = v
		}
		grad := p.Gradient()
		for i := range p.Data {
			g := grad[i] + o.WeightDecay*p.Data[i]
			v[i] = o.Momentum*v[i] - o.LR*g
			p.Data[i] += v[i]
		}
	}
}

// Config controls a training run.
//
// Determinism contract: a finished run is a pure function of the network
// initialisation, the dataset, and every Config field except Workers and
// Verbose. Workers only sets the degree of parallelism — each batch is
// split into fixed-size microbatches whose gradients are accumulated in
// separate buffers and reduced in microbatch-index order, and activation
// calibration reduces per-clone observed maxima by exact max before a
// single momentum update per batch — so the trained weights are
// bit-identical for any worker count, including the host-dependent
// NumCPU default.
type Config struct {
	// Epochs of float pre-training.
	Epochs int
	// QATEpochs of quantization-aware fine-tuning appended after the
	// float phase (the paper uses six).
	QATEpochs int
	// WBits enables weight fake-quantization at the QAT phase.
	WBits int
	// ABits enables activation fake-quantization (ActQuant layers must
	// already exist in the network; their bit width is set by the model
	// builder).
	ABits int
	// BatchSize per optimizer step.
	BatchSize int
	// LR is the initial learning rate; it decays by LRDecay each epoch.
	LR      float64
	LRDecay float64
	// Momentum for SGD.
	Momentum float64
	// WeightDecay (L2).
	WeightDecay float64
	// AnalogCore, when non-nil, makes the QAT phase hardware-aware:
	// Dense/Conv2D forwards run through the analog optical model
	// (crosstalk-in-the-loop, see nn.EnableAnalogQAT) instead of the
	// plain quantization grid, with a straight-through estimator
	// backward. The core's weight precision takes priority over WBits.
	// Use a Physical-fidelity core to keep training deterministic.
	AnalogCore *oc.Core
	// Workers for data-parallel gradient computation; 0 = NumCPU. Never
	// affects the trained weights (see the determinism contract above).
	Workers int
	// Seed for shuffling.
	Seed int64
	// Verbose prints per-epoch progress.
	Verbose bool
}

// DefaultConfig returns a sensible small-model training recipe.
func DefaultConfig() Config {
	return Config{
		Epochs:      4,
		QATEpochs:   3,
		WBits:       4,
		ABits:       4,
		BatchSize:   32,
		LR:          0.05,
		LRDecay:     0.85,
		Momentum:    0.9,
		WeightDecay: 1e-4,
		Seed:        1,
	}
}

// Result summarises a training run.
type Result struct {
	TrainLoss  []float64 // per epoch
	FinalLoss  float64
	EpochsRun  int
	QATEnabled bool
}

// Train runs float training followed by QAT fine-tuning on net.
func Train(net *nn.Sequential, ds Dataset, cfg Config) (Result, error) {
	if cfg.BatchSize < 1 {
		return Result{}, fmt.Errorf("train: batch size %d", cfg.BatchSize)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > cfg.BatchSize {
		workers = cfg.BatchSize
	}
	opt := NewSGD(cfg.LR, cfg.Momentum, cfg.WeightDecay)
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := Result{}
	lr := cfg.LR

	totalEpochs := cfg.Epochs + cfg.QATEpochs
	for epoch := 0; epoch < totalEpochs; epoch++ {
		if epoch == cfg.Epochs && cfg.QATEpochs > 0 {
			// Switch to quantization-aware fine-tuning. WBits == 0 and a
			// nil AnalogCore means the caller attached (possibly
			// mixed-precision) quantizers itself; leave them untouched.
			switch {
			case cfg.AnalogCore != nil:
				nn.EnableAnalogQAT(net, cfg.AnalogCore)
			case cfg.WBits > 0:
				nn.EnableQAT(net, cfg.WBits)
			}
			res.QATEnabled = true
		}
		// Freeze activation calibration for the last half of QAT.
		if cfg.QATEpochs > 0 && epoch >= cfg.Epochs+(cfg.QATEpochs+1)/2 {
			nn.FreezeActQuant(net, true)
		}
		opt.LR = lr
		loss, err := trainEpoch(net, ds, cfg, opt, rng, workers)
		if err != nil {
			return res, err
		}
		res.TrainLoss = append(res.TrainLoss, loss)
		res.FinalLoss = loss
		res.EpochsRun++
		lr *= cfg.LRDecay
		if cfg.Verbose {
			fmt.Printf("epoch %2d/%d  loss %.4f  lr %.4f  qat=%v\n", epoch+1, totalEpochs, loss, opt.LR, res.QATEnabled)
		}
	}
	nn.FreezeActQuant(net, true)
	return res, nil
}

// microBatchSize is the fixed gradient-accumulation granule. Batches are
// always split at this granularity — never by worker count — so the
// floating-point grouping of the gradient reduction is a property of the
// batch alone and training output cannot depend on Config.Workers.
const microBatchSize = 8

// trainEpoch runs one pass over the dataset with data-parallel workers.
//
// Determinism: each batch is cut into microbatches of microBatchSize.
// Workers claim microbatches from a shared counter (scheduling is racy,
// results are not): every microbatch's gradients land in their own
// buffers, which the reduction then folds into the master parameters in
// microbatch-index order. Activation calibration runs externally — clones
// record observed maxima, the reduction takes the exact max across all
// clones and applies one momentum update on the master per batch — so
// neither the partition nor the schedule can change the result.
func trainEpoch(net *nn.Sequential, ds Dataset, cfg Config, opt *SGD, rng *rand.Rand, workers int) (float64, error) {
	n := ds.Len()
	perm := rng.Perm(n)
	inShape := ds.InputShape()
	sampleSize := 1
	for _, s := range inShape {
		sampleSize *= s
	}

	clones := make([]*nn.Sequential, workers)
	cloneAQ := make([][]*nn.ActQuant, workers)
	for i := range clones {
		clones[i] = net.CloneShared()
		nn.SetActQuantExternal(clones[i], true)
		cloneAQ[i] = nn.ActQuants(clones[i])
	}
	masterParams := net.Params()
	masterAQ := nn.ActQuants(net)

	// Per-microbatch gradient buffers, reused across batches.
	maxMB := (cfg.BatchSize + microBatchSize - 1) / microBatchSize
	type mbResult struct {
		loss  float64
		count int
		grads [][]float64 // one buffer per parameter
	}
	mbs := make([]mbResult, maxMB)
	for m := range mbs {
		mbs[m].grads = make([][]float64, len(masterParams))
		for pi, p := range masterParams {
			mbs[m].grads[pi] = make([]float64, len(p.Data))
		}
	}

	totalLoss := 0.0
	batches := 0
	for start := 0; start < n; start += cfg.BatchSize {
		end := start + cfg.BatchSize
		if end > n {
			end = n
		}
		idxs := perm[start:end]
		nMB := (len(idxs) + microBatchSize - 1) / microBatchSize
		var next int64
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for w := 0; w < workers && w < nMB; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				clone := clones[w]
				for {
					m := int(atomic.AddInt64(&next, 1)) - 1
					if m >= nMB {
						return
					}
					lo := m * microBatchSize
					hi := lo + microBatchSize
					if hi > len(idxs) {
						hi = len(idxs)
					}
					part := idxs[lo:hi]
					clone.ZeroGrad()
					shape := append([]int{len(part)}, inShape...)
					x := nn.NewTensor(shape...)
					labels := make([]int, len(part))
					for i, idx := range part {
						labels[i] = ds.Sample(idx, x.Data[i*sampleSize:(i+1)*sampleSize])
					}
					y, err := clone.Forward(x, true)
					if err != nil {
						errs[w] = err
						return
					}
					loss, grad, err := nn.SoftmaxCrossEntropy(y, labels)
					if err != nil {
						errs[w] = err
						return
					}
					if err := clone.Backward(grad); err != nil {
						errs[w] = err
						return
					}
					cp := clone.Params()
					for pi := range cp {
						copy(mbs[m].grads[pi], cp[pi].Grad)
					}
					mbs[m].loss = loss
					mbs[m].count = len(part)
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return 0, err
			}
		}
		// Fold microbatch gradients into the master params in index
		// order, weighted by each microbatch's share of the batch.
		total := 0
		for m := 0; m < nMB; m++ {
			total += mbs[m].count
		}
		if total == 0 {
			continue
		}
		for _, p := range masterParams {
			p.ZeroGrad()
		}
		for m := 0; m < nMB; m++ {
			scale := float64(mbs[m].count) / float64(total)
			for pi, p := range masterParams {
				g := mbs[m].grads[pi]
				grad := p.Gradient()
				for i := range grad {
					grad[i] += g[i] * scale
				}
			}
			totalLoss += mbs[m].loss * scale
		}
		batches++
		opt.Step(masterParams)
		// Activation calibration: exact max across every clone's observed
		// maxima (order-free), one momentum update on the master, then
		// sync the new scales back to all clones.
		for qi, maq := range masterAQ {
			if maq.Frozen {
				continue
			}
			batchMax := 0.0
			for w := range clones {
				if m := cloneAQ[w][qi].TakeBatchMax(); m > batchMax {
					batchMax = m
				}
			}
			maq.UpdateScale(batchMax)
		}
		for _, clone := range clones {
			if err := nn.SyncActQuantScales(clone, net); err != nil {
				return 0, err
			}
		}
	}
	if batches == 0 {
		return 0, fmt.Errorf("train: empty dataset")
	}
	return totalLoss / float64(batches), nil
}

// Evaluate computes classification accuracy of net over ds in inference
// mode, in parallel batches.
func Evaluate(net *nn.Sequential, ds Dataset, batchSize int) (float64, error) {
	if batchSize < 1 {
		batchSize = 64
	}
	n := ds.Len()
	inShape := ds.InputShape()
	sampleSize := 1
	for _, s := range inShape {
		sampleSize *= s
	}
	hits := 0
	for start := 0; start < n; start += batchSize {
		end := start + batchSize
		if end > n {
			end = n
		}
		shape := append([]int{end - start}, inShape...)
		x := nn.NewTensor(shape...)
		labels := make([]int, end-start)
		for i := 0; i < end-start; i++ {
			labels[i] = ds.Sample(start+i, x.Data[i*sampleSize:(i+1)*sampleSize])
		}
		y, err := net.Forward(x, false)
		if err != nil {
			return 0, err
		}
		preds := nn.Argmax(y)
		for i, p := range preds {
			if p == labels[i] {
				hits++
			}
		}
	}
	return float64(hits) / float64(n), nil
}

// EvaluatePhotonic measures accuracy through the photonic executor
// (infer.CompileEval), which is the end-to-end number Table 1 reports for
// Lightator.
func EvaluatePhotonic(ev *infer.Eval, ds Dataset, batchSize, maxSamples int) (float64, error) {
	if batchSize < 1 {
		batchSize = 16
	}
	n := ds.Len()
	if maxSamples > 0 && n > maxSamples {
		n = maxSamples
	}
	inShape := ds.InputShape()
	sampleSize := 1
	for _, s := range inShape {
		sampleSize *= s
	}
	hits := 0
	for start := 0; start < n; start += batchSize {
		end := start + batchSize
		if end > n {
			end = n
		}
		shape := append([]int{end - start}, inShape...)
		x := nn.NewTensor(shape...)
		labels := make([]int, end-start)
		for i := 0; i < end-start; i++ {
			labels[i] = ds.Sample(start+i, x.Data[i*sampleSize:(i+1)*sampleSize])
		}
		y, err := ev.Forward(x)
		if err != nil {
			return 0, err
		}
		preds := nn.Argmax(y)
		for i, p := range preds {
			if p == labels[i] {
				hits++
			}
		}
	}
	return float64(hits) / float64(n), nil
}
