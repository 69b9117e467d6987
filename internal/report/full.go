package report

import (
	"fmt"
	"strings"
	"time"

	"donorsense/internal/cluster"
	"donorsense/internal/core"
	"donorsense/internal/organ"
	"donorsense/internal/pipeline"
	"donorsense/internal/stats"
)

// Analysis bundles every result of the paper's evaluation computed over
// one dataset, ready for rendering or programmatic inspection.
type Analysis struct {
	Stats      pipeline.TableI
	Popularity [organ.Count]int
	Spearman   stats.SpearmanResult
	// MultiTweets/MultiUsers: Figure 2(b) histograms (index 0 ⇒ k=1).
	MultiTweets [organ.Count]int
	MultiUsers  [organ.Count]int

	Attention *core.Attention
	// StateOf resolves a user id to its state straight off the dataset's
	// columnar store — no O(users) map is materialized for the region
	// analyses anymore.
	StateOf core.StateLookup

	Organs    *core.OrganCharacterization  // Figure 3
	Regions   *core.RegionCharacterization // Figure 4
	Highlight *core.HighlightResult        // Figure 5
	Baseline  map[string]organ.Organ       // winner-takes-all baseline

	// Figure 6: distances between non-empty state rows, their codes, and
	// the dendrogram.
	StateDist  [][]float64
	StateCodes []string
	Dendrogram *cluster.Dendrogram

	// Figure 7: user clustering at KUsers clusters, plus the selection
	// sweep.
	KUsers   int
	Clusters *cluster.KMeansResult
	Sweep    []cluster.SweepResult
}

// AnalysisConfig tunes the expensive parts of Analyze.
type AnalysisConfig struct {
	// KUsers is the user-cluster count (paper: 12).
	KUsers int
	// SweepKs lists the ks for the model-selection sweep; empty skips
	// the sweep.
	SweepKs []int
	// SilhouetteSample averages each sweep silhouette over this many
	// seeded users (0 = the exact mean over all users, the default; the
	// exact pass costs O(distinct rows²), see cluster.SweepKDense).
	SilhouetteSample int
	// Seed drives K-Means initialization.
	Seed uint64
	// Workers bounds the concurrency of the clustering passes
	// (0 = GOMAXPROCS). Results are bit-identical for any value.
	Workers int
	// Metrics, when non-nil, records per-stage latencies.
	Metrics *Metrics
}

// DefaultAnalysisConfig mirrors the paper's choices.
func DefaultAnalysisConfig() AnalysisConfig {
	return AnalysisConfig{
		KUsers:  12,
		SweepKs: []int{6, 8, 10, 12, 14, 16},
		Seed:    1,
	}
}

// Analyze runs the complete evaluation of the paper over a processed
// dataset: Table I, Figure 2 histograms and Spearman validation, the
// organ/region characterizations, RR highlighting, state clustering, and
// user clustering.
func Analyze(d *pipeline.Dataset, cfg AnalysisConfig) (*Analysis, error) {
	a := &Analysis{
		Stats:      d.Stats(),
		Popularity: d.UsersPerOrgan(),
		KUsers:     cfg.KUsers,
	}
	a.MultiTweets, a.MultiUsers = d.MultiOrganHistogram()

	sp, err := d.PopularityCorrelation()
	if err != nil {
		return nil, fmt.Errorf("report: popularity correlation: %w", err)
	}
	a.Spearman = sp

	start := time.Now()
	att, err := d.BuildAttention()
	if err != nil {
		return nil, fmt.Errorf("report: attention: %w", err)
	}
	cfg.Metrics.observe(StageAttention, start)
	a.Attention = att
	a.StateOf = d.StateLookup()

	start = time.Now()
	if a.Organs, err = core.CharacterizeOrgans(att); err != nil {
		return nil, fmt.Errorf("report: figure 3: %w", err)
	}
	if a.Regions, err = core.CharacterizeRegionsFunc(att, a.StateOf); err != nil {
		return nil, fmt.Errorf("report: figure 4: %w", err)
	}
	if a.Highlight, err = core.HighlightOrgansFunc(att, a.StateOf); err != nil {
		return nil, fmt.Errorf("report: figure 5: %w", err)
	}
	if a.Baseline, err = core.WinnerTakesAllFunc(att, a.StateOf); err != nil {
		return nil, fmt.Errorf("report: winner-takes-all: %w", err)
	}
	cfg.Metrics.observe(StageCharacterize, start)

	rows, codes := a.Regions.NonEmptyRows()
	a.StateCodes = codes
	if len(rows) >= 2 {
		start = time.Now()
		if a.StateDist, err = cluster.PairwiseMatrixWorkers(rows, cluster.Bhattacharyya, cfg.Workers); err != nil {
			return nil, fmt.Errorf("report: figure 6 distances: %w", err)
		}
		if a.Dendrogram, err = cluster.Agglomerative(a.StateDist, cluster.AverageLinkage); err != nil {
			return nil, fmt.Errorf("report: figure 6 clustering: %w", err)
		}
		cfg.Metrics.observe(StageStateCluster, start)
	}

	// The user clustering runs zero-copy against Û's flat matrix.
	u := att.Matrix()
	if cfg.KUsers > 0 && u.Rows() >= cfg.KUsers {
		start = time.Now()
		if a.Clusters, err = cluster.KMeansDense(u, cluster.KMeansConfig{
			K: cfg.KUsers, Seed: cfg.Seed, Restarts: 2, Workers: cfg.Workers,
		}); err != nil {
			return nil, fmt.Errorf("report: figure 7: %w", err)
		}
		cfg.Metrics.observe(StageUserCluster, start)
	}
	if len(cfg.SweepKs) > 0 && u.Rows() > maxInt(cfg.SweepKs) {
		start = time.Now()
		if a.Sweep, err = cluster.SweepKDense(u, cfg.SweepKs, cfg.Seed, cfg.SilhouetteSample, cfg.Workers); err != nil {
			return nil, fmt.Errorf("report: k sweep: %w", err)
		}
		cfg.Metrics.observe(StageSweep, start)
	}
	return a, nil
}

func maxInt(xs []int) int {
	m := xs[0]
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Render produces the complete textual report, every table and figure in
// paper order.
func (a *Analysis) Render() string {
	var b strings.Builder
	b.WriteString("=== Table I: dataset statistics ===\n")
	b.WriteString(TableIText(a.Stats))
	b.WriteString("\n=== Figure 2 ===\n")
	b.WriteString(UsersPerOrganText(a.Popularity))
	b.WriteString(SpearmanText(a.Spearman))
	b.WriteString("\n")
	b.WriteString(MultiOrganText(a.MultiTweets, a.MultiUsers))
	b.WriteString("\n=== Figure 3 ===\n")
	b.WriteString(OrganCharacterizationText(a.Organs))
	b.WriteString("\n=== Figure 4 ===\n")
	b.WriteString(RegionCharacterizationText(a.Regions))
	b.WriteString(RegionHistogramsText(a.Regions))
	b.WriteString("\n=== Figure 5 ===\n")
	b.WriteString(HighlightText(a.Highlight))
	if a.Dendrogram != nil {
		b.WriteString("\n=== Figure 6 ===\n")
		b.WriteString(SimilarityHeatmapText(a.StateDist, a.StateCodes, a.Dendrogram))
	}
	if a.Clusters != nil {
		b.WriteString("\n=== Figure 7 ===\n")
		b.WriteString(UserClustersText(a.Clusters, a.Attention.Users()))
	}
	if len(a.Sweep) > 0 {
		b.WriteString("\n")
		b.WriteString(SweepText(a.Sweep))
	}
	return b.String()
}
