package dist

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"github.com/dsn2015/vdbench/internal/harness"
	"github.com/dsn2015/vdbench/internal/workload"
)

// statusWait is the long-poll window of one campaign status request.
const statusWait = 10 * time.Second

// Client drives a distributed campaign from the submitting side: derive
// the corpus and suite, submit the spec, long-poll for completion, fetch
// the stitched cell grid and run the canonical merge LOCALLY. Merging
// locally is the point — the Campaign handed back is produced by the
// exact same harness.MergeShards fold a local run uses, over material
// the client derived itself, so distributed and local results are
// byte-identical by construction, not by trusting the coordinator.
type Client struct {
	// Base is the coordinator base URL, e.g. "http://127.0.0.1:8080".
	Base string
	// ShardCases overrides the shard granularity of specs built by
	// ExecuteCampaign; zero keeps the coordinator default.
	ShardCases int
}

// NewClient returns a client for the coordinator at base.
func NewClient(base string) *Client {
	return &Client{Base: base}
}

// RunCampaign executes the spec on the coordinator's worker fleet and
// returns the merged Campaign. A campaign the coordinator reports as
// failed surfaces as an error with the coordinator's error text — for
// policy aborts that text is identical to what a local run would return.
func (cl *Client) RunCampaign(ctx context.Context, spec CampaignSpec) (*harness.Campaign, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Validate and derive the merge's corpus and suite before submitting:
	// early errors beat round-trips, and a generation failure surfaces
	// before any shard is leased.
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	corpus, err := corpusFor(spec.Workload)
	if err != nil {
		return nil, err
	}
	tools, err := BuildSuite(spec.Suite)
	if err != nil {
		return nil, err
	}

	var sub SubmitResponse
	if _, err := httpJSON(ctx, http.DefaultClient, http.MethodPost, cl.Base+"/dist/v1/campaigns", spec, &sub); err != nil {
		return nil, err
	}

	st, err := cl.awaitDone(ctx, sub.ID)
	if err != nil {
		return nil, err
	}
	if st.State == "failed" {
		// For policy aborts the coordinator's error is the underlying
		// fault text (harness.AbortError); pass it through verbatim so
		// distributed failures read exactly like local ones.
		return nil, errors.New(st.Error)
	}

	var cells [][]harness.CellResult
	if _, err := httpJSON(ctx, http.DefaultClient, http.MethodGet, cl.Base+"/dist/v1/campaigns/"+st.ID+"/cells", nil, &cells); err != nil {
		return nil, err
	}
	return harness.MergeShards(corpus, tools, cells, spec.Options.Degraded)
}

// awaitDone long-polls the status endpoint until the campaign reaches a
// terminal state or ctx is cancelled.
func (cl *Client) awaitDone(ctx context.Context, id string) (CampaignStatus, error) {
	url := fmt.Sprintf("%s/dist/v1/campaigns/%s?wait=%s", cl.Base, id, statusWait)
	for {
		if err := ctx.Err(); err != nil {
			return CampaignStatus{}, err
		}
		var st CampaignStatus
		if _, err := httpJSON(ctx, http.DefaultClient, http.MethodGet, url, nil, &st); err != nil {
			return CampaignStatus{}, err
		}
		if st.State != "running" {
			return st, nil
		}
	}
}

// ExecuteCampaign adapts the client to the experiments campaign-executor
// seam: it builds a spec from the local campaign inputs and runs it
// distributed. The signature structurally satisfies
// experiments.CampaignExecutor without importing that package.
func (cl *Client) ExecuteCampaign(ctx context.Context, wcfg workload.Config, suite string, opts harness.Options) (*harness.Campaign, error) {
	return cl.RunCampaign(ctx, CampaignSpec{
		Workload:   wcfg,
		Suite:      suite,
		Options:    opts,
		ShardCases: cl.ShardCases,
	})
}
