package main

import (
	"bytes"
	"embed"
	"fmt"
	"math"
	"text/template"
)

//go:embed workloads/*.json.tmpl
var templates embed.FS

// spec is one named benchmark workload: a document template plus the
// sizes that turn a requested measuring time into a fixed amount of
// simulated work.
type spec struct {
	// Name is the workload's name in BENCHMARK.json, which also says why
	// it exists.
	Name string
	// Template is the file under workloads/ (spread-8x8-w1 and -w2 share
	// one, so they cannot drift apart).
	Template string
	// Workers and Partition fill the document's exec-strategy fields.
	Workers   int
	Partition string
	// ChunkMS is the biological length of one Run call, chosen so that a
	// chunk takes about 60 ms of wall time on the 2-core reference host
	// (README, "How the sizes were chosen").
	ChunkMS int
}

var specs = []spec{
	{
		Name:     "dense-8x8",
		Template: "dense-8x8", Workers: 1,
		ChunkMS: 80,
	},
	{
		Name:     "spread-8x8-w1",
		Template: "spread-8x8", Workers: 1,
		ChunkMS: 15,
	},
	{
		Name:     "spread-8x8-w2",
		Template: "spread-8x8", Workers: 2, Partition: "blocks",
		ChunkMS: 15,
	},
	{
		Name:     "plastic-8x8",
		Template: "plastic-8x8", Workers: 1,
		ChunkMS: 21,
	},
	{
		Name:     "campaign-8x8",
		Template: "campaign-8x8", Workers: 1,
		ChunkMS: 20,
	},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return spec{}, false
}

const (
	// smokeDiv divides every population in the smoke test's documents.
	smokeDiv = 50
	// chunkWall is the wall time one chunk takes on the reference host
	// (each spec's ChunkMS is sized for it). It turns -seconds into a
	// chunk count: 167 chunks at BENCHMARK.json's run_seconds of 10, and
	// never fewer than the 100 that leave ten samples beyond the 90th
	// percentile unless -seconds asks for less than 6. The simulated work
	// is fixed by -seconds alone; the wall time it takes is the result.
	chunkWall = 0.060
	minChunks = 40
	// smokeChunks is the timed phase of the smoke test.
	smokeChunks = 2
)

// chunks is the length of the timed phase for a requested measuring
// time; the smoke test cuts it to smokeChunks.
func (s spec) chunks(seconds float64, smoke bool) int {
	if smoke {
		return smokeChunks
	}
	return max(minChunks, int(math.Round(seconds/chunkWall)))
}

// document generates the workload document: the template with the seed
// filled into machine.seed, the projection seeds and campaign.seed, and
// the run schedule sized to chunks. The schedule holds two chunks beyond
// the timed phase: the restore check runs one more on each machine.
// The smoke test divides every population by smokeDiv.
func (s spec) document(seed uint64, chunks int, smoke bool) ([]byte, error) {
	div := 1
	if smoke {
		div = smokeDiv
	}
	funcs := template.FuncMap{
		// seed derives the k-th seed of the document from -seed; distinct
		// streams for the machine, each projection and the campaign.
		"seed": func(k int) uint64 { return seed*1000 + uint64(k) },
		// at places a campaign event at a share of the timed phase.
		"at":   func(share float64) int { return int(share * float64(chunks*s.ChunkMS)) },
		"size": func(n int) int { return max(n/div, 4) },
	}
	t, err := template.New(s.Template+".json.tmpl").Funcs(funcs).ParseFS(templates, "workloads/"+s.Template+".json.tmpl")
	if err != nil {
		return nil, fmt.Errorf("bench: workload template %s: %w", s.Template, err)
	}
	data := struct {
		BioMS, ChunkMS, Workers int
		Partition               string
	}{(chunks + 2) * s.ChunkMS, s.ChunkMS, s.Workers, s.Partition}
	var buf bytes.Buffer
	if err := t.Execute(&buf, data); err != nil {
		return nil, fmt.Errorf("bench: workload template %s: %w", s.Template, err)
	}
	return buf.Bytes(), nil
}
