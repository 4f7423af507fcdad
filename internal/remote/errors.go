package remote

import (
	"errors"
	"fmt"

	"github.com/gms-sim/gmsubpage/internal/proto"
)

// ErrPageUnavailable is the sentinel matched by errors.Is when a page
// cannot be fetched from any server within the client's retry budget —
// the bounded, typed outcome that replaces an indefinite hang.
var ErrPageUnavailable = errors.New("remote: page unavailable")

// errNotRegistered is the authoritative directory miss: no server holds
// the page, so retrying cannot help.
var errNotRegistered = errors.New("not registered in the directory")

// errClientClosed aborts in-flight work when the client shuts down.
var errClientClosed = errors.New("remote: client closed")

// ErrDirectoryUnreachable is matched by RegisterWith, lease renewal and
// DrainVia errors when the directory cannot be dialed, so callers can tell a
// down control plane apart from a protocol failure with errors.Is. It is
// proto.ErrUnreachable, which proto.Ask returns for a failed dial.
var ErrDirectoryUnreachable = proto.ErrUnreachable

// ErrWrongShard is matched (via errors.Is) by lookup errors when a
// directory shard answered that another shard owns the page. The client
// heals this internally — the TWrongShard reply carries the current shard
// map, so the very next lookup goes to the right shard — and the error
// only escapes if forwarding keeps bouncing, which means the deployment's
// shards disagree about the map.
var ErrWrongShard = errors.New("remote: page owned by another directory shard")

// WrongShardError is the typed form of a TWrongShard reply: the shard map
// the answering shard is serving. It matches ErrWrongShard under
// errors.Is.
type WrongShardError struct {
	Page uint64
	Map  proto.ShardMap
}

func (e *WrongShardError) Error() string {
	return fmt.Sprintf("remote: page %d owned by another shard (map v%d, %d shards)",
		e.Page, e.Map.Version, len(e.Map.Shards))
}

// Is makes errors.Is(err, ErrWrongShard) match any *WrongShardError.
func (e *WrongShardError) Is(target error) bool { return target == ErrWrongShard }

// PageError reports a page whose fetch failed permanently: every replica
// was tried, retries are exhausted, or the directory answered that nobody
// holds it. It matches ErrPageUnavailable under errors.Is and unwraps to
// the last underlying cause.
type PageError struct {
	Page     uint64
	Attempts int
	Err      error
}

func (e *PageError) Error() string {
	return fmt.Sprintf("remote: page %d unavailable after %d attempt(s): %v", e.Page, e.Attempts, e.Err)
}

func (e *PageError) Unwrap() error { return e.Err }

// Is makes errors.Is(err, ErrPageUnavailable) match any *PageError.
func (e *PageError) Is(target error) bool { return target == ErrPageUnavailable }
