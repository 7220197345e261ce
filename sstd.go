// Package sstd is the public API of the Scalable Streaming Truth Discovery
// library, a reproduction of Zhang et al., "Towards Scalable and Dynamic
// Social Sensing Using A Distributed Computing Framework" (ICDCS 2017).
//
// Social sensing applications collect observations ("claims") about the
// physical world from unvetted human sources. SSTD answers, in real time
// and at scale, the truth discovery question: which claims are true right
// now, given that source reliability is unknown and the ground truth
// itself evolves?
//
// Three layers are exposed:
//
//   - The streaming engine (Engine): per-claim Hidden-Markov-Model truth
//     decoding over Aggregated Contribution Score sequences — the paper's
//     core algorithm, runnable in a single process.
//   - The distributed manager (Manager): the same pipeline split into Work
//     Queue-style tasks executed by an elastic worker pool with
//     PID-feedback deadline control.
//   - The preprocessing pipeline (Scorer and the nlp package underneath):
//     raw posts to scored reports (attitude, uncertainty, independence).
//
// A minimal single-process session:
//
//	cfg := sstd.DefaultConfig(streamStart)
//	eng, err := sstd.NewEngine(cfg)
//	// feed reports as they arrive...
//	err = eng.Ingest(report)
//	// decode a claim's truth timeline on demand:
//	estimates, err := eng.DecodeClaim("osu-shooting")
//
// See the examples directory for complete programs and DESIGN.md for how
// each internal package maps to the paper.
package sstd

import (
	"io"
	"net/http"
	"time"

	"github.com/social-sensing/sstd/internal/claimdep"
	"github.com/social-sensing/sstd/internal/clustering"
	"github.com/social-sensing/sstd/internal/contrib"
	"github.com/social-sensing/sstd/internal/core"
	"github.com/social-sensing/sstd/internal/dtm"
	"github.com/social-sensing/sstd/internal/obs"
	"github.com/social-sensing/sstd/internal/pipeline"
	"github.com/social-sensing/sstd/internal/socialsensing"
	"github.com/social-sensing/sstd/internal/sourcerel"
	"github.com/social-sensing/sstd/internal/tracegen"
	"github.com/social-sensing/sstd/internal/workqueue"
)

// Data model re-exports. These aliases make the shared social sensing
// types usable without importing internal packages.
type (
	// Report is one scored observation by a source on a claim.
	Report = socialsensing.Report
	// Claim is a statement whose truth evolves over time.
	Claim = socialsensing.Claim
	// Source is a report producer with hidden reliability.
	Source = socialsensing.Source
	// SourceID identifies a source.
	SourceID = socialsensing.SourceID
	// ClaimID identifies a claim.
	ClaimID = socialsensing.ClaimID
	// TruthValue is a binary claim state at an instant.
	TruthValue = socialsensing.TruthValue
	// Attitude is a report's stance toward its claim.
	Attitude = socialsensing.Attitude
	// Trace is a complete dataset with ground truth labels.
	Trace = socialsensing.Trace
)

// Truth values and attitudes.
const (
	True  = socialsensing.True
	False = socialsensing.False

	Agree    = socialsensing.Agree
	Disagree = socialsensing.Disagree
	NoReport = socialsensing.NoReport
)

// Engine types.
type (
	// Engine is the in-process streaming truth discovery engine.
	Engine = core.Engine
	// Config parameterizes an Engine.
	Config = core.Config
	// ACSConfig controls the Aggregated Contribution Score computation.
	ACSConfig = core.ACSConfig
	// DecoderConfig controls the per-claim HMM decoder.
	DecoderConfig = core.DecoderConfig
	// Estimate is a claim's decoded truth over one interval: its start and
	// value. A claim's estimates are a slice indexed by interval.
	Estimate = core.Estimate
	// StreamingDecoder decodes one claim incrementally with fixed-lag
	// smoothing.
	StreamingDecoder = core.StreamingDecoder
)

// Source reliability diagnostics.
type (
	// SourceEstimate is one source's reliability estimate with a Wilson
	// confidence interval.
	SourceEstimate = sourcerel.Estimate
	// SourceRelConfig tunes reliability estimation.
	SourceRelConfig = sourcerel.Config
)

// Claim dependency types (the §VII correlation extension).
type (
	// DependencyGraph is an estimated claim correlation structure.
	DependencyGraph = claimdep.Graph
	// DependencyConfig tunes dependency estimation and smoothing.
	DependencyConfig = claimdep.Config
	// ClaimCorrelation is one pairwise dependency.
	ClaimCorrelation = claimdep.Correlation
)

// Distributed types.
type (
	// Manager is the distributed Dynamic Task Manager.
	Manager = dtm.Manager
	// ManagerConfig parameterizes a Manager.
	ManagerConfig = dtm.Config
	// JobResult is the outcome of one distributed TD job.
	JobResult = dtm.JobResult
	// WorkerHealth is one worker's row in the master's health registry:
	// liveness state, last-seen time, throughput estimates and straggler
	// flag. Manager.ClusterHealth returns one per known worker.
	WorkerHealth = workqueue.WorkerHealth
	// WorkerState is a worker's liveness classification (alive, suspect
	// or dead).
	WorkerState = workqueue.WorkerState
	// TaskExecutor runs one task's payload on a worker;
	// ManagerConfig.WrapExec wraps the pool's.
	TaskExecutor = workqueue.Executor
)

// Worker liveness states.
const (
	WorkerAlive   = workqueue.WorkerAlive
	WorkerSuspect = workqueue.WorkerSuspect
	WorkerDead    = workqueue.WorkerDead
)

// Composed ingestion pipeline.
type (
	// Pipeline routes raw posts through keyword filtering, claim
	// clustering, semantic scoring and the truth discovery engine.
	Pipeline = pipeline.Pipeline
	// PipelineConfig assembles a Pipeline.
	PipelineConfig = pipeline.Config
	// RawPost is an unprocessed observation for the Pipeline.
	RawPost = pipeline.RawPost
)

// Preprocessing types.
type (
	// Scorer converts raw posts into scored reports.
	Scorer = contrib.Scorer
	// Post is a raw observation before semantic scoring.
	Post = contrib.Post
	// Clusterer groups raw texts into claims online (the paper's claim
	// generator: streaming K-means over Jaccard distance).
	Clusterer = clustering.Clusterer
	// ClusterConfig tunes the claim clusterer.
	ClusterConfig = clustering.Config
)

// Trace generation types (synthetic workloads shaped after the paper's
// datasets).
type (
	// TraceProfile describes a synthetic event.
	TraceProfile = tracegen.Profile
	// TraceGenerator synthesizes traces for a profile.
	TraceGenerator = tracegen.Generator
)

// Telemetry types. A nil registry / tracer / recorder disables the
// corresponding instrumentation at ~zero cost, so telemetry is pay-for-use.
type (
	// MetricsRegistry holds counters, gauges and latency histograms for
	// every instrumented layer (engine, work queue, DTM, pipeline).
	MetricsRegistry = obs.Registry
	// SpanTracer records per-job / per-task timeline spans into a ring
	// buffer, exportable as JSON or Chrome trace_event format.
	SpanTracer = obs.Tracer
	// ControlRecorder captures the PID control loop tick by tick.
	ControlRecorder = obs.ControlRecorder
	// ControlSample is one job's slice of one PID tick.
	ControlSample = obs.ControlSample
	// WorkerSample is one worker's observed-vs-predicted throughput row
	// recorded by the control loop each tick.
	WorkerSample = obs.WorkerSample
	// Logger is a leveled, structured JSON-lines logger whose entries
	// carry trace/span/worker/task correlation fields; a ring buffer of
	// recent entries backs the /logs endpoint.
	Logger = obs.Logger
	// LogLevel is a Logger severity threshold.
	LogLevel = obs.LogLevel
	// LogField is one structured key/value on a log entry.
	LogField = obs.Field
)

// Log levels.
const (
	LogDebug = obs.LevelDebug
	LogInfo  = obs.LevelInfo
	LogWarn  = obs.LevelWarn
	LogError = obs.LevelError
)

// NewMetricsRegistry creates an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewSpanTracer creates a span tracer keeping the most recent capacity
// spans (<= 0 uses the default of 4096).
func NewSpanTracer(capacity int) *SpanTracer { return obs.NewTracer(capacity) }

// NewControlRecorder creates a control-loop recorder keeping at most max
// samples (<= 0 uses a generous default).
func NewControlRecorder(max int) *ControlRecorder { return obs.NewControlRecorder(max) }

// NewLogger creates a structured logger writing JSON lines at or above
// min to w (nil w = ring buffer only), keeping the most recent capacity
// entries for /logs (<= 0 uses the default of 1024).
func NewLogger(w io.Writer, min LogLevel, capacity int) *Logger {
	return obs.NewLogger(w, min, capacity)
}

// TelemetryHandler serves /metrics (Prometheus text, ?format=json for
// JSON), /trace (Chrome trace_event), /logs (recent structured log
// entries) and /debug/pprof/* for the given telemetry sinks; any may be
// nil.
func TelemetryHandler(reg *MetricsRegistry, tr *SpanTracer, lg *Logger) http.Handler {
	return obs.Handler(reg, tr, lg)
}

// WriteTelemetryArtifact writes a JSON file with the final metrics
// snapshot and control-loop time series — the reproducible artifact of a
// -telemetry run.
func WriteTelemetryArtifact(path string, reg *MetricsRegistry, rec *ControlRecorder) error {
	return obs.WriteArtifactFile(path, reg, rec)
}

// NewEngine builds a streaming truth discovery engine.
func NewEngine(cfg Config) (*Engine, error) { return core.NewEngine(cfg) }

// DefaultConfig returns the paper's default engine setup with the interval
// grid anchored at origin.
func DefaultConfig(origin time.Time) Config { return core.DefaultConfig(origin) }

// NewManager builds the distributed Dynamic Task Manager.
func NewManager(cfg ManagerConfig) (*Manager, error) { return dtm.New(cfg) }

// DefaultManagerConfig returns a working distributed configuration.
func DefaultManagerConfig(origin time.Time) ManagerConfig { return dtm.DefaultConfig(origin) }

// NewScorer builds the default preprocessing pipeline (emergency-event
// attitude lexicon, built-in hedge classifier, retweet-based independence).
func NewScorer() *Scorer { return contrib.NewScorer() }

// NewPipeline composes filter + clusterer + scorer + engine behind one
// Process(post) call.
func NewPipeline(cfg PipelineConfig) (*Pipeline, error) { return pipeline.New(cfg) }

// NewClusterer builds an online claim clusterer.
func NewClusterer(cfg ClusterConfig) *Clusterer { return clustering.New(cfg) }

// DefaultClusterConfig returns clustering thresholds tuned for
// tweet-length text.
func DefaultClusterConfig() ClusterConfig { return clustering.DefaultConfig() }

// NewStreamingDecoder wraps the per-claim HMM decoder with fixed-lag
// smoothing for bounded-cost live decoding.
func NewStreamingDecoder(cfg DecoderConfig, lag int) (*StreamingDecoder, error) {
	return core.NewStreamingDecoder(cfg, lag)
}

// EstimateDependencies builds a claim correlation graph from per-claim
// evidence (ACS) series; use Graph.Smooth on posteriors from
// Engine.PosteriorClaim to let correlated claims reinforce each other.
func EstimateDependencies(series map[ClaimID][]float64, cfg DependencyConfig) (*DependencyGraph, error) {
	return claimdep.EstimateGraph(series, cfg)
}

// DefaultDependencyConfig returns the default dependency-model settings.
func DefaultDependencyConfig() DependencyConfig { return claimdep.DefaultConfig() }

// RankSources estimates per-source reliability against decoded truth
// (most reliable first, ranked by interval lower bound). The truth
// function is typically built from Engine.DecodeClaim results via
// TruthAt.
func RankSources(reports []Report, truth func(ClaimID, time.Time) (TruthValue, bool), cfg SourceRelConfig) ([]SourceEstimate, error) {
	return sourcerel.Ranked(reports, truth, cfg)
}

// DefaultSourceRelConfig returns 95% Wilson intervals over all sources.
func DefaultSourceRelConfig() SourceRelConfig { return sourcerel.DefaultConfig() }

// NewTraceGenerator builds a synthetic trace generator for a profile.
func NewTraceGenerator(prof TraceProfile, seed int64) (*TraceGenerator, error) {
	return tracegen.New(prof, seed)
}

// BostonBombingProfile returns the synthetic profile shaped after the
// paper's Boston Bombing trace.
func BostonBombingProfile() TraceProfile { return tracegen.BostonBombing() }

// ParisShootingProfile returns the synthetic profile shaped after the
// paper's Paris Shooting trace.
func ParisShootingProfile() TraceProfile { return tracegen.ParisShooting() }

// CollegeFootballProfile returns the synthetic profile shaped after the
// paper's College Football trace.
func CollegeFootballProfile() TraceProfile { return tracegen.CollegeFootball() }

// TruthAt evaluates a decoded estimate timeline at a point in time.
func TruthAt(estimates []Estimate, at time.Time) (TruthValue, bool) {
	return core.TruthAt(estimates, at)
}
