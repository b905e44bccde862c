package coherence

import (
	"dirsim/internal/bus"
)

// Berkeley estimates the Berkeley Ownership snoopy protocol exactly the way
// Section 5 does: "the cost model for the Berkeley scheme is derived from
// the Dir0B scheme by trivially setting the directory access cost to 0 bus
// cycles", because a snooping cache learns from its own block state whether
// an invalidation is needed. (Berkeley's other refinement — a dirty block
// being supplied by the owning cache instead of memory — does not affect
// the pipelined-bus metric, as the paper notes.)
//
// Berkeley therefore wraps the Dir0B engine: identical state-change model,
// identical events and operations; only the pricing changes, which it
// declares through the ModelAdjuster interface.
type Berkeley struct {
	*DirEngine
}

var _ ModelAdjuster = (*Berkeley)(nil)

// NewBerkeley returns the Berkeley Ownership cost-model engine.
func NewBerkeley(cfg Config) (*Berkeley, error) {
	inner, err := NewDir0B(cfg)
	if err != nil {
		return nil, err
	}
	inner.name = "Berkeley"
	return &Berkeley{DirEngine: inner}, nil
}

// AdjustModel implements ModelAdjuster: directory checks are free because
// the information lives in the snooping caches.
func (b *Berkeley) AdjustModel(m bus.CostModel) bus.CostModel {
	return m.WithDirCheckCost(0)
}
