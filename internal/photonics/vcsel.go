package photonics

// VCSEL models a directly modulated vertical-cavity surface-emitting laser,
// the activation source of Lightator's DMVA. The optical output follows the
// standard L-I curve: zero below the threshold current, then linear with
// the slope efficiency. Activations are encoded by switching 16 parallel
// driving transistors (see internal/analog.Driver), so the drive current —
// and hence the optical power — takes one of 16 discrete levels (4-bit).
type VCSEL struct {
	// Wavelength of the emitted carrier, meters. Each VCSEL in the DMVA
	// owns one WDM channel.
	Wavelength float64
	// ThresholdCurrent in amperes. Typical 1550 nm VCSELs: 0.5-2 mA.
	ThresholdCurrent float64
	// SlopeEfficiency in W/A above threshold.
	SlopeEfficiency float64
	// MaxCurrent bounds the drive current (thermal rollover is modelled as
	// a hard clip rather than a soft curve).
	MaxCurrent float64
	// ForwardVoltage is the diode drop used for electrical power
	// accounting, volts.
	ForwardVoltage float64
}

// DefaultVCSEL returns a VCSEL with parameters typical of long-wavelength
// datacom devices: 0.8 mA threshold, 0.3 W/A slope, 8 mA max drive.
func DefaultVCSEL(wavelength float64) *VCSEL {
	return &VCSEL{
		Wavelength:       wavelength,
		ThresholdCurrent: 0.8e-3,
		SlopeEfficiency:  0.3,
		MaxCurrent:       8e-3,
		ForwardVoltage:   1.8,
	}
}

// OpticalPower returns the emitted optical power in watts for drive
// current i amperes.
func (v *VCSEL) OpticalPower(i float64) float64 {
	if i > v.MaxCurrent {
		i = v.MaxCurrent
	}
	if i <= v.ThresholdCurrent {
		return 0
	}
	return v.SlopeEfficiency * (i - v.ThresholdCurrent)
}

// ElectricalPower returns the wall power consumed at drive current i.
func (v *VCSEL) ElectricalPower(i float64) float64 {
	if i > v.MaxCurrent {
		i = v.MaxCurrent
	}
	if i < 0 {
		i = 0
	}
	return i * v.ForwardVoltage
}

// MaxOpticalPower returns the optical power at the maximum drive current.
func (v *VCSEL) MaxOpticalPower() float64 {
	return v.OpticalPower(v.MaxCurrent)
}
