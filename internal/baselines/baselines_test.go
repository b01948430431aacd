package baselines

import (
	"math"
	"testing"

	"lightator/internal/models"
)

// lenetMACs is the MNIST workload Table 1's throughput figures are
// normalised to.
func lenetMACs(t *testing.T) int64 {
	t.Helper()
	return models.TotalMACs(models.LeNet())
}

// Table 1's reported values for each optical design.
func TestOpticalDesignsMatchTable1(t *testing.T) {
	macs := lenetMACs(t)
	cases := []struct {
		design    OpticalDesign
		wantPower float64 // W; 0 = not published
		wantKFPSW float64
		powerTol  float64
		kfpswTol  float64
	}{
		{LightBulb(), 68.3, 57.75, 0.10, 0.15},
		{HolyLight(), 66.9, 3.3, 0.10, 0.15},
		{HQNNA(), 0, 34.6, 0, 0.20},
		{Robin(), 106, 46.5, 0.10, 0.15},
		{CrossLight(), 84, 52.59, 0.10, 0.15},
	}
	for _, c := range cases {
		if c.wantPower > 0 {
			got := c.design.MaxPower()
			if math.Abs(got-c.wantPower)/c.wantPower > c.powerTol {
				t.Errorf("%s power %.3g W, paper %.3g W", c.design.Label(), got, c.wantPower)
			}
			if !c.design.PowerPublished {
				t.Errorf("%s should report power as published", c.design.Name)
			}
		} else if c.design.PowerPublished {
			t.Errorf("%s power should be unpublished", c.design.Name)
		}
		got := c.design.KFPSPerW(macs)
		if math.Abs(got-c.wantKFPSW)/c.wantKFPSW > c.kfpswTol {
			t.Errorf("%s KFPS/W %.4g, paper %.4g", c.design.Label(), got, c.wantKFPSW)
		}
	}
}

func TestGPUBaseline(t *testing.T) {
	g := RTX3060Ti()
	if g.BoardPower != 200 {
		t.Errorf("GPU power %g, want 200 (Table 1 baseline)", g.BoardPower)
	}
}

// Power-reduction ratios quoted in the paper's observations (2): ~73x vs
// GPU, ~24.68x vs HolyLight, ~30.9x vs CrossLight, relative to Lightator
// [3:4] at 2.71 W. Using the calibrated models and the paper's own 2.71 W:
func TestPowerReductionRatios(t *testing.T) {
	const lightatorPower = 2.71
	if r := RTX3060Ti().BoardPower / lightatorPower; r < 60 || r > 90 {
		t.Errorf("GPU reduction %gx, paper ~73x", r)
	}
	if r := HolyLight().MaxPower() / lightatorPower; r < 20 || r > 30 {
		t.Errorf("HolyLight reduction %gx, paper ~24.68x", r)
	}
	if r := CrossLight().MaxPower() / lightatorPower; r < 25 || r > 37 {
		t.Errorf("CrossLight reduction %gx, paper ~30.9x", r)
	}
}

func TestElectronicExecTimes(t *testing.T) {
	alexMACs := models.TotalMACs(models.AlexNet())
	for _, d := range AllElectronic() {
		et, err := d.ExecTime(alexMACs)
		if err != nil {
			t.Fatal(err)
		}
		// All Fig. 10 designs run AlexNet in the 1-1000 ms band.
		if et < 1e-3 || et > 1 {
			t.Errorf("%s AlexNet exec time %g s outside Fig. 10 band", d.Name, et)
		}
	}
	e := Eyeriss()
	if _, err := e.ExecTime(0); err != nil {
		t.Fatal(err)
	}
	bad := ElectronicDesign{Name: "dead"}
	if _, err := bad.ExecTime(100); err == nil {
		t.Error("zero-throughput design accepted")
	}
}

// Fig. 10 ordering on AlexNet: ENVISION < Eyeriss < AppCip < YodaNN
// (Lightator beats all; its time comes from the architecture simulator).
func TestElectronicOrdering(t *testing.T) {
	alexMACs := models.TotalMACs(models.AlexNet())
	tEnv, _ := ENVISION().ExecTime(alexMACs)
	tEye, _ := Eyeriss().ExecTime(alexMACs)
	tApp, _ := AppCip().ExecTime(alexMACs)
	tYoda, _ := YodaNN().ExecTime(alexMACs)
	if !(tEnv < tEye && tEye < tApp && tApp < tYoda) {
		t.Errorf("ordering broken: ENVISION %g Eyeriss %g AppCip %g YodaNN %g", tEnv, tEye, tApp, tYoda)
	}
}

func TestAllElectronicCount(t *testing.T) {
	if len(AllElectronic()) != 4 {
		t.Errorf("electronic designs %d, want 4", len(AllElectronic()))
	}
}
