// Command loadtest drives a flowcon-worker's /v1 submit surface with
// concurrent submitters and reports the per-phase latency breakdown
// (connect / submit / status-poll) — the CI loadtest-smoke gate
// (scripts/loadtest-smoke.sh boots a worker, runs this against it, and
// fails on any error or a p99 submit latency over budget). Every job it
// submits goes through the worker's admission queue, the one way a
// container starts there.
//
// Usage:
//
//	loadtest -worker http://localhost:7070 [-submitters 8] [-jobs 25]
//	         [-model "MNIST (Pytorch)"] [-p99-budget 500ms]
//	         [-assert-metrics] [-cleanup] [-log-level info] [-log-format text]
//
// The report goes to stdout only; the benchmark's live-submit workload
// owns the recorded end-to-end latency. With -assert-metrics the run
// scrapes the worker's /v1/metrics afterwards and fails unless the
// agent-side submit counters are consistent with what this client
// observed.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/agent"
	"repro/internal/telemetry"
)

func main() {
	worker := flag.String("worker", "http://localhost:7070", "worker agent base URL")
	submitters := flag.Int("submitters", 8, "concurrent submitter goroutines")
	jobs := flag.Int("jobs", 25, "submissions per submitter")
	model := flag.String("model", "MNIST (Pytorch)", "catalog model key to submit")
	budget := flag.Duration("p99-budget", 0, "fail when p99 submit latency exceeds this (0 = no gate)")
	assertMetrics := flag.Bool("assert-metrics", false,
		"scrape /v1/metrics after the run and fail unless the worker's submit counters match this client's view")
	cleanup := flag.Bool("cleanup", true, "cancel submitted jobs afterwards")
	timeout := flag.Duration("timeout", 2*time.Minute, "overall run budget")
	logLevel, logFormat := telemetry.LogFlags(flag.CommandLine)
	flag.Parse()

	logger, err := telemetry.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadtest:", err)
		os.Exit(2)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	c := agent.NewClient(*worker, nil)
	if _, err := c.PingRetry(ctx, 10); err != nil {
		logger.Error("worker unreachable", "worker", *worker, "err", err)
		os.Exit(1)
	}

	rep := agent.RunLoadTest(ctx, c, agent.LoadOptions{
		Submitters:       *submitters,
		JobsPerSubmitter: *jobs,
		Model:            *model,
		Cleanup:          *cleanup,
	})
	fmt.Printf("loadtest: %s\n", rep)
	fmt.Printf("  connect:     %s\n", rep.Phases.Connect)
	fmt.Printf("  submit:      %s\n", rep.Phases.Submit)
	fmt.Printf("  status-poll: %s\n", rep.Phases.StatusPoll)

	if rep.Errors > 0 {
		logger.Error("submissions failed", "errors", rep.Errors, "first", rep.FirstError)
		os.Exit(1)
	}
	if *budget > 0 && rep.P99 > *budget {
		logger.Error("p99 over budget", "p99", rep.P99, "budget", *budget)
		os.Exit(1)
	}
	if *assertMetrics {
		if err := checkMetrics(ctx, c, rep); err != nil {
			logger.Error("metrics assertion failed", "err", err)
			os.Exit(1)
		}
		logger.Info("worker metrics consistent with client view", "submits", rep.Submitted)
	}
	os.Exit(0)
}

// checkMetrics scrapes the worker's /v1/metrics and cross-checks the
// agent-side counters against what this client measured: the worker must
// have counted at least our accepted submissions (at least — the worker
// may have served other clients or earlier runs) and the latency summary
// must have observed every one of them.
func checkMetrics(ctx context.Context, c *agent.Client, rep agent.LoadReport) error {
	text, err := c.Metrics(ctx)
	if err != nil {
		return fmt.Errorf("scraping /v1/metrics: %w", err)
	}
	submits, err := sampleValue(text, "flowcon_agent_submits_total")
	if err != nil {
		return err
	}
	if submits <= 0 || submits < float64(rep.Submitted) {
		return fmt.Errorf("flowcon_agent_submits_total = %g, want >= %d accepted submissions",
			submits, rep.Submitted)
	}
	latCount, err := sampleValue(text, "flowcon_agent_submit_latency_seconds_count")
	if err != nil {
		return err
	}
	if latCount != submits {
		return fmt.Errorf("latency summary count %g != submits_total %g", latCount, submits)
	}
	queued, err := sampleValue(text, "flowcon_agent_submits_queued_total")
	if err != nil {
		return err
	}
	if queued < float64(rep.Queued) {
		return fmt.Errorf("flowcon_agent_submits_queued_total = %g, want >= %d", queued, rep.Queued)
	}
	return nil
}

// sampleValue extracts one sample's value from a Prometheus text
// exposition by its exact name (including any label set).
func sampleValue(text, sample string) (float64, error) {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, sample+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %s value %q: %w", sample, rest, err)
			}
			return v, nil
		}
	}
	return 0, fmt.Errorf("sample %s missing from scrape", sample)
}
