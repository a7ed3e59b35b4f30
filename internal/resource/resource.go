// Package resource models the four resource dimensions FlowCon accounts for
// (CPU, memory, block I/O, network I/O) and implements the work-conserving
// soft-limit allocator that reproduces Docker's runtime behaviour under
// `docker update`.
//
// The paper (Section 4.1) relies on two properties of Docker's resource
// controls:
//
//  1. limits can be re-set at any time on a running container, and
//  2. limits are *soft*: "even if the container cannot maximize its own
//     resource, the unused option will be utilized by others".
//
// Allocator implements exactly those semantics for a single contended
// resource via progressive filling, and is the substrate on which both the
// NA baseline (no limits: plain fair sharing clipped by demand) and FlowCon
// (per-container soft limits from Algorithm 1) run.
package resource

import "fmt"

// Kind identifies one of the resource dimensions a container consumes.
type Kind int

const (
	// CPU is normalized compute: 1.0 is the full node, matching the
	// normalized CPU-usage axes of the paper's Figures 7-16.
	CPU Kind = iota
	// Memory is resident set size in bytes.
	Memory
	// BlkIO is block I/O bandwidth in bytes/second.
	BlkIO
	// NetIO is network I/O bandwidth in bytes/second.
	NetIO

	// NumKinds is the number of resource dimensions.
	NumKinds
)

var kindNames = [NumKinds]string{"cpu", "memory", "blkio", "netio"}

// String returns the lowercase name of the kind ("cpu", "memory", ...).
func (k Kind) String() string {
	if k < 0 || k >= NumKinds {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}
