// Package mapping implements Lightator's hardware mapping methodology
// (paper §4, Fig. 6): how convolution kernels of different sizes and
// fully-connected fan-ins are partitioned across the optical core's arms,
// banks and summation stages, and how many operational cycles and weight
// re-mapping events a DNN layer costs.
package mapping

import "fmt"

// Optical-core geometry (paper §4): "MRs are organized into groups of 9
// inside each arm ... each set of 6 arms is treated as a bank. In total,
// 96 banks are arranged in an array with 8 columns and 12 rows ... the MVM
// banks collectively house 5184 MRs. This implies that, at maximum, 5184
// MAC operations can be executed in each operational cycle."
const (
	MRsPerArm   = 9
	ArmsPerBank = 6
	BankCols    = 8
	BankRows    = 12
	NumBanks    = BankCols * BankRows // 96
	MRsPerBank  = MRsPerArm * ArmsPerBank
	TotalArms   = NumBanks * ArmsPerBank
	TotalMRs    = NumBanks * MRsPerBank // 5184
)

// KernelMapping describes how one K x K kernel stride occupies a bank.
type KernelMapping struct {
	// KernelSize is K for a K x K kernel.
	KernelSize int
	// Taps is K*K, the number of weights per stride.
	Taps int
	// ArmsPerStride is how many 9-MR arms one stride occupies.
	ArmsPerStride int
	// StridesPerBank is how many independent strides fit in one bank's 6
	// arms (Fig. 6: 6 for 3x3, 2 for 5x5, 1 for 7x7).
	StridesPerBank int
	// IdleMRsPerStride counts unused (gray in Fig. 6) MRs per stride.
	IdleMRsPerStride int
	// IdleArmsPerBank counts whole arms left unused per bank.
	IdleArmsPerBank int
	// SummationStages is how many stages of the bank's summation tree are
	// active: 0 when the BPD alone finishes the MAC (3x3), 1 when partial
	// sums from up to 3 arms combine (5x5), 2 when all 6 arms combine
	// (7x7).
	SummationStages int
}

// MapKernel partitions a K x K convolution kernel onto a bank. Kernels up
// to 7x7 fit inside one bank (the paper's largest case); larger kernels
// are segmented like fully-connected layers — use MapFC for those.
func MapKernel(k int) (KernelMapping, error) {
	if k < 1 {
		return KernelMapping{}, fmt.Errorf("mapping: kernel size %d < 1", k)
	}
	taps := k * k
	armsPerStride := (taps + MRsPerArm - 1) / MRsPerArm
	if armsPerStride > ArmsPerBank {
		return KernelMapping{}, fmt.Errorf("mapping: %dx%d kernel (%d taps) exceeds one bank; segment it with MapFC", k, k, taps)
	}
	m := KernelMapping{
		KernelSize:       k,
		Taps:             taps,
		ArmsPerStride:    armsPerStride,
		StridesPerBank:   ArmsPerBank / armsPerStride,
		IdleMRsPerStride: armsPerStride*MRsPerArm - taps,
	}
	m.IdleArmsPerBank = ArmsPerBank - m.StridesPerBank*armsPerStride
	switch {
	case armsPerStride == 1:
		m.SummationStages = 0
	case armsPerStride <= 3:
		m.SummationStages = 1
	default:
		m.SummationStages = 2
	}
	return m, nil
}

// MRUtilisation is the fraction of the MRs in occupied arms that carry a
// weight: taps / (armsPerStride * 9).
func (m KernelMapping) MRUtilisation() float64 {
	return float64(m.Taps) / float64(m.ArmsPerStride*MRsPerArm)
}

// StridesPerCycle is how many kernel strides the whole 96-bank core
// executes in one operational cycle.
func (m KernelMapping) StridesPerCycle() int {
	return m.StridesPerBank * NumBanks
}

// FCMapping describes segmenting one fully-connected neuron's fan-in into
// 9-MAC chunks (paper §4: "we segment the entire MAC operations into sets
// of 9 MACs, map their corresponding weights to arms, and subsequently
// aggregate the partial results using the summation part").
type FCMapping struct {
	// FanIn is the neuron's input count.
	FanIn int
	// Segments is ceil(FanIn / 9): the number of arms one neuron needs.
	Segments int
	// TailTaps is the occupancy of the final segment (1..9).
	TailTaps int
}

// MapFC segments a fully-connected fan-in.
func MapFC(fanIn int) (FCMapping, error) {
	if fanIn < 1 {
		return FCMapping{}, fmt.Errorf("mapping: fan-in %d < 1", fanIn)
	}
	segs := (fanIn + MRsPerArm - 1) / MRsPerArm
	tail := fanIn - (segs-1)*MRsPerArm
	return FCMapping{FanIn: fanIn, Segments: segs, TailTaps: tail}, nil
}

// MRUtilisation is the fraction of occupied-arm MRs carrying weights.
func (m FCMapping) MRUtilisation() float64 {
	return float64(m.FanIn) / float64(m.Segments*MRsPerArm)
}
