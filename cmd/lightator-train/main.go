// Command lightator-train trains a model on one of the synthetic tasks,
// runs quantization-aware fine-tuning at a [W:A] configuration, and
// reports digital-quantized and photonic (crosstalk-aware) accuracy.
//
// Usage:
//
//	lightator-train -task mnist -w 4 -a 4
//	lightator-train -task cifar10 -w 3 -a 4 -epochs 6 -qat 3
//	lightator-train -task mnist -analog         # crosstalk-in-the-loop QAT
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"lightator/internal/dataset"
	"lightator/internal/infer"
	"lightator/internal/models"
	"lightator/internal/nn"
	"lightator/internal/oc"
	"lightator/internal/train"
)

// run executes the command against args (excluding the program name),
// writing output to stdout and usage/errors to stderr. Split from main
// so the CLI surface is testable (flag set, golden flags, smoke run).
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("lightator-train", flag.ContinueOnError)
	fs.SetOutput(stderr)
	task := fs.String("task", "mnist", "task: mnist, cifar10, cifar100")
	wBits := fs.Int("w", 4, "weight bits for QAT")
	aBits := fs.Int("a", 4, "activation bits")
	mxFirst := fs.Int("mx-first", 0, "Lightator-MX first-layer weight bits (0 = uniform)")
	epochs := fs.Int("epochs", 5, "float training epochs")
	qat := fs.Int("qat", 3, "QAT fine-tuning epochs")
	trainN := fs.Int("train", 2000, "training samples")
	testN := fs.Int("test", 500, "test samples")
	width := fs.Int("width", 8, "VGG9-slim base width (CIFAR tasks)")
	photonicN := fs.Int("photonic", 100, "photonic evaluation samples (0 = skip)")
	analog := fs.Bool("analog", false, "crosstalk-in-the-loop QAT: fine-tune against the Physical optical forward instead of the plain quantization grid")
	seed := fs.Int64("seed", 1, "seed")
	workers := fs.Int("workers", 0, "training workers (0 = NumCPU; never affects the trained weights)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var (
		full *dataset.Synth
		net  *nn.Sequential
		err  error
	)
	switch *task {
	case "mnist":
		full = dataset.NewDigits(*trainN+*testN, *seed)
		net = models.BuildLeNet(10, *aBits)
	case "cifar10":
		full = dataset.NewObjects10(*trainN+*testN, *seed)
		net, err = models.BuildVGG9Slim(3, 32, 32, 10, *width, *aBits)
	case "cifar100":
		full = dataset.NewObjects100(*trainN+*testN, *seed)
		net, err = models.BuildVGG9Slim(3, 32, 32, 100, *width, *aBits)
	default:
		return fmt.Errorf("unknown task %q", *task)
	}
	if err != nil {
		return err
	}
	trainSet, testSet, err := full.Split(*trainN)
	if err != nil {
		return err
	}

	net.InitHe(*seed + 13)
	cfg := train.DefaultConfig()
	cfg.Epochs = *epochs
	cfg.QATEpochs = *qat
	cfg.WBits = *wBits
	cfg.Workers = *workers
	cfg.Seed = *seed
	cfg.Verbose = true
	if *analog {
		core, err := oc.NewCore(*wBits, *aBits, oc.Physical)
		if err != nil {
			return err
		}
		cfg.AnalogCore = core
	}
	fmt.Fprintf(stdout, "training %s on %s: %d train / %d test, [%d:%d]",
		net.Layers[0].Name(), full.TaskName, trainSet.Len(), testSet.Len(), *wBits, *aBits)
	if *mxFirst != 0 {
		fmt.Fprintf(stdout, " (MX first layer [%d:%d])", *mxFirst, *aBits)
	}
	if *analog {
		fmt.Fprint(stdout, " (analog QAT: Physical crosstalk in the loop)")
	}
	fmt.Fprintln(stdout)

	if _, err := train.Train(net, trainSet, cfg); err != nil {
		return err
	}
	if *mxFirst != 0 {
		if err := nn.SetLayerWeightBits(net, 0, *mxFirst); err != nil {
			return err
		}
	}
	acc, err := train.Evaluate(net, testSet, 64)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "digital quantized accuracy: %.2f%%\n", acc*100)

	if *photonicN > 0 {
		ev, err := infer.CompileEval(net, *aBits, oc.Physical)
		if err != nil {
			return err
		}
		pacc, err := train.EvaluatePhotonic(ev, testSet, 16, *photonicN)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "photonic (crosstalk) accuracy on %d samples: %.2f%%\n", *photonicN, pacc*100)
		fmt.Fprintf(stdout, "network occupies %d optical-core arms; full-residency tuning power %.3g W\n",
			ev.ArmCount(), ev.HeaterPower())
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if err == flag.ErrHelp {
			return // -h prints usage and exits 0, like flag.ExitOnError
		}
		fmt.Fprintln(os.Stderr, "lightator-train:", err)
		os.Exit(1)
	}
}
