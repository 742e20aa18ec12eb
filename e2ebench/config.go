package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// config.json is the one stack configuration every workload runs
// against, plus each workload's frozen rates.
//
//go:embed config.json
var configJSON []byte

// Config is the parsed config.json.
type Config struct {
	Corpus Shape `json:"corpus"`
	// Data tier: rdb.DurableOptions.
	PoolPages       int   `json:"pool_pages"`
	ResidentRows    int   `json:"resident_rows"`
	CheckpointBytes int64 `json:"checkpoint_bytes"`
	// Web node.
	BeanCache      int `json:"bean_cache"`
	EdgeCache      int `json:"edge_cache"`
	EdgeTTLSeconds int `json:"edge_ttl_s"`
	// Application servers.
	Containers        int `json:"containers"`
	ContainerCapacity int `json:"container_capacity"`
	// SetupSpawns is how many servers a run starts to take the median
	// set-up time; the last one serves the measured phases.
	SetupSpawns int `json:"setup_spawns"`
	// MaxLatenessUS bounds the generator's own p99 lateness (timer
	// overshoot past a request's due time); a run above it is invalid.
	MaxLatenessUS float64 `json:"max_lateness_us"`

	Workloads map[string]WorkloadConfig `json:"workloads"`
}

// WorkloadConfig freezes one workload's rates and phase shares.
type WorkloadConfig struct {
	// PageRate is the open-loop Poisson rate of page GETs (req/s).
	PageRate float64 `json:"page_rate"`
	// OpRate is the content-manager's operation rate (ops/s), run on a
	// connection of its own during the page phase; 0 means the workload
	// has no writes. One cycle is a create and a delete, each followed by
	// its read-after-write checks.
	OpRate float64 `json:"op_rate"`
	// Phase shares of --seconds: the fixed-rate phase and the
	// closed-loop saturation phase.
	PageShare   float64 `json:"page_share"`
	ClosedShare float64 `json:"closed_share"`
	// LatencyLimitMS is the per-request limit goodput counts against.
	LatencyLimitMS float64 `json:"latency_limit_ms"`
	// WarmRequests are sent before timing starts, to fill caches.
	WarmRequests int `json:"warm_requests"`
}

func loadConfig() (*Config, error) {
	var c Config
	if err := json.Unmarshal(configJSON, &c); err != nil {
		return nil, fmt.Errorf("config.json: %w", err)
	}
	return &c, nil
}
