// Command adarnet-train trains an ADARNet model on a corpus produced by
// datagen (or generates a small corpus on the fly) and writes a checkpoint.
//
// Usage:
//
//	adarnet-train -corpus corpus.gob -epochs 20 -out model.gob
//	adarnet-train -per-family 4 -epochs 10 -out model.gob   (generate inline)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"time"

	"adarnet/internal/core"
	"adarnet/internal/dataset"
	"adarnet/internal/obs"
)

func main() {
	corpus := flag.String("corpus", "", "corpus gob file (empty: generate inline)")
	perFamily := flag.Int("per-family", 4, "inline generation: samples per family")
	h := flag.Int("h", 16, "inline generation: LR height")
	w := flag.Int("w", 64, "inline generation: LR width")
	patch := flag.Int("patch", 4, "patch size (cells per side)")
	bins := flag.Int("bins", 4, "number of target resolutions")
	lambda := flag.Float64("lambda", 0.03, "PDE-loss weight")
	lr := flag.Float64("lr", 1e-4, "Adam learning rate")
	epochs := flag.Int("epochs", 10, "training epochs")
	batch := flag.Int("batch", 8, "batch size")
	out := flag.String("out", "model.gob", "checkpoint output path")
	debugAddr := flag.String("debug-addr", "", "diagnostics listen address (pprof, /metrics, /debug/vars); empty disables")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *debugAddr != "" {
		// Live view into a long training run: step-time histogram, per-epoch
		// loss gauges, pool hit rates on /metrics; CPU/heap profiles and
		// execution traces under /debug/pprof. No write timeout — a 30 s CPU
		// profile streams for that long.
		dbg := &http.Server{
			Addr:              *debugAddr,
			Handler:           obs.DebugMux(obs.Default, nil),
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			fmt.Printf("debug listener on %s\n", *debugAddr)
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "adarnet-train: debug listener:", err)
			}
		}()
		defer dbg.Close()
	}

	var samples []core.Sample
	var err error
	if *corpus != "" {
		samples, err = dataset.LoadFile(*corpus)
	} else {
		fmt.Println("generating corpus inline...")
		samples, err = dataset.Generate(ctx, dataset.DefaultOptions(*perFamily, *h, *w))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "adarnet-train:", err)
		os.Exit(1)
	}
	train, val := dataset.Split(samples, 0.1)
	fmt.Printf("corpus: %d train / %d val samples\n", len(train), len(val))

	cfg := core.DefaultConfig(*patch, *patch)
	cfg.Bins = *bins
	cfg.Lambda = *lambda
	cfg.LR = *lr
	model := core.New(cfg)
	fmt.Printf("model: %d parameters\n", model.ParamCount())

	tr := core.NewTrainer(model)
	tr.FitNormalization(train)
	opts := core.DefaultTrainOptions()
	opts.Epochs = *epochs
	opts.BatchSize = *batch
	opts.Monitor = func(e int, total, data, pde float64) {
		fmt.Printf("epoch %3d: total %.3e  data %.3e  pde %.3e\n", e, total, data, pde)
	}
	if _, err := tr.Fit(ctx, train, opts); err != nil {
		fmt.Fprintln(os.Stderr, "adarnet-train:", err)
		os.Exit(1)
	}
	if err := model.Save(*out); err != nil {
		fmt.Fprintln(os.Stderr, "adarnet-train:", err)
		os.Exit(1)
	}
	fmt.Printf("checkpoint written to %s\n", *out)
}
