package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"adarnet/internal/core"
	"adarnet/internal/dataset"
	"adarnet/internal/geometry"
	"adarnet/internal/solver"
)

// Training corpus of one set-up: two channel and two ellipse solves, two
// epochs. The ISSUE's corpus (3 per family, 4 epochs, ≈18 s) does not fit a
// run that sets up three times; this one exercises the same layers
// (dataset → solver, Trainer.Fit → autodiff/nn/tensor float64, Model.Save)
// in ≈3.5 s and is still bit-deterministic.
const (
	trainPerFamily = 2
	trainEpochs    = 2
	trainBatch     = 4
)

var trainFamilies = []geometry.Kind{geometry.Channel, geometry.ExternalBody}

func solverOptions() solver.Options {
	o := solver.DefaultOptions()
	o.MaxIter = solverMaxIter
	return o
}

func modelConfig() core.Config {
	cfg := core.DefaultConfig(patchSize, patchSize)
	cfg.Bins = bins
	return cfg
}

// env is one completed set-up: a trained checkpoint on disk, the model
// loaded from it exactly as adarnet-serve loads it (so in-process calls and
// the server compute with the same weights and normalization), and the
// running server.
type env struct {
	dir      string
	ckptHash string
	model    *core.Model
	srv      *server

	generateS, fitS float64
	trainSamples    int
}

func (e *env) close() {
	if e == nil {
		return
	}
	e.srv.stop()
	os.RemoveAll(e.dir)
}

// setUp generates the corpus, trains, checkpoints, reloads and spawns the
// server, under a private directory of workDir. It returns once /healthz
// answers 200. The elapsed time of this function is one setup_s sample.
func setUp(ctx context.Context, workDir, serveBin string, tr *tracer) (*env, error) {
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return nil, err
	}
	e := &env{dir: dir}
	done := false
	defer func() {
		if !done {
			e.close()
		}
	}()
	root := tr.start(0, -1, "setup.run")
	defer tr.end(root)

	dopt := dataset.DefaultOptions(trainPerFamily, lrH, lrW)
	dopt.Solver = solverOptions()
	dopt.Families = trainFamilies
	var samples []core.Sample
	t0 := time.Now()
	tr.do(0, root, "dataset.generate", func() { samples, err = dataset.Generate(ctx, dopt) })
	if err != nil {
		return nil, fmt.Errorf("dataset.Generate: %w", err)
	}
	e.generateS = time.Since(t0).Seconds()
	train, _ := dataset.Split(samples, 0.2)
	e.trainSamples = len(train)

	trained := core.New(modelConfig())
	trainer := core.NewTrainer(trained)
	trainer.Opt.LR = 1e-3
	topt := core.DefaultTrainOptions()
	topt.Epochs = trainEpochs
	topt.BatchSize = trainBatch
	t0 = time.Now()
	tr.do(0, root, "core.train_fit", func() {
		trainer.FitNormalization(train)
		_, err = trainer.Fit(ctx, train, topt)
	})
	if err != nil {
		return nil, fmt.Errorf("Trainer.Fit: %w", err)
	}
	e.fitS = time.Since(t0).Seconds()

	ckpt := filepath.Join(dir, "model.gob")
	if err = trained.Save(ckpt); err != nil {
		return nil, fmt.Errorf("Model.Save: %w", err)
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(data)
	e.ckptHash = hex.EncodeToString(sum[:])
	e.model = core.New(modelConfig())
	if err = e.model.Load(ckpt); err != nil {
		return nil, err
	}
	if e.srv, err = startServer(ctx, serveBin, dir, ckpt); err != nil {
		return nil, err
	}
	done = true
	return e, nil
}

// server is the spawned adarnet-serve child.
type server struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	jobsDir string
	stderr  string // path of the captured stderr
	done    chan struct{}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer spawns the server with the benchmark's fixed flags and waits
// for /healthz. Its stderr goes to a file in dir, dumped on failure.
func startServer(ctx context.Context, bin, dir, ckpt string) (*server, error) {
	if bin == "" {
		return nil, errors.New("no -serve-bin given (run the benchmark through benchmark/run.sh, which builds it)")
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	s := &server{
		base:    "http://127.0.0.1:" + strconv.Itoa(port),
		jobsDir: filepath.Join(dir, "jobs"),
		stderr:  filepath.Join(dir, "server.stderr"),
		done:    make(chan struct{}),
	}
	logf, err := os.Create(s.stderr)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	s.cmd = exec.CommandContext(ctx, bin,
		"-model", ckpt, "-patch", strconv.Itoa(patchSize), "-bins", strconv.Itoa(bins),
		"-cache-bytes", strconv.Itoa(cacheBytes), "-jobs-dir", s.jobsDir,
		"-addr", "127.0.0.1:"+strconv.Itoa(port))
	s.cmd.Stderr = logf
	// On cancellation (SIGINT to the benchmark) ask for a graceful drain,
	// then kill.
	s.cmd.Cancel = func() error { return s.cmd.Process.Signal(os.Interrupt) }
	s.cmd.WaitDelay = 3 * time.Second
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("spawn %s: %w", bin, err)
	}
	go func() {
		s.cmd.Wait()
		close(s.done)
	}()

	// Probes close their connection, so that the load generator's two
	// keep-alive connections are the only ones the measured server holds.
	probe := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := probe.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.done:
			s.dumpStderr()
			return nil, errors.New("server exited before /healthz answered")
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.dumpStderr()
			s.stop()
			return nil, errors.New("server /healthz not ready within 15 s")
		}
	}
}

// stop ends the child and waits until it has exited: SIGINT for the
// server's own drain, SIGKILL if that takes more than three seconds.
func (s *server) stop() {
	if s == nil {
		return
	}
	s.cmd.Process.Signal(os.Interrupt)
	select {
	case <-s.done:
	case <-time.After(3 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
}

func (s *server) dumpStderr() {
	data, err := os.ReadFile(s.stderr)
	if err != nil {
		return
	}
	if len(data) > 8<<10 {
		data = data[len(data)-8<<10:]
	}
	fmt.Fprintf(os.Stderr, "---- server stderr ----\n%s\n-----------------------\n", data)
}

// peakRSSMB reads the child's VmHWM; 0 where /proc is not available.
func (s *server) peakRSSMB() float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// setUpRepeated sets up k times, keeps the last environment and returns the
// k elapsed times. Training is deterministic, so every checkpoint must hash
// alike; a difference is reported as an error of the run, not of set-up.
func setUpRepeated(ctx context.Context, workDir, serveBin string, k int, tr *tracer) (*env, []float64, bool, error) {
	var times []float64
	var last *env
	same := true
	for i := 0; i < k; i++ {
		t0 := time.Now()
		e, err := setUp(ctx, workDir, serveBin, tr)
		if err != nil {
			last.close()
			return nil, nil, false, err
		}
		times = append(times, time.Since(t0).Seconds())
		if last != nil {
			same = same && last.ckptHash == e.ckptHash
			last.close()
		}
		last = e
	}
	return last, times, same, nil
}
