package rpc

import (
	"errors"

	"github.com/dsrhaslab/sdscale/internal/wire"
)

// StaleEpochError reports whether err is (or wraps) a remote stale-epoch
// rejection and, if so, returns the receiver's current leadership epoch.
// Controllers use it to recognize that they have been deposed: a single
// stale-epoch reply is authoritative and the caller must step down rather
// than retry.
func StaleEpochError(err error) (current uint64, ok bool) {
	var er *wire.ErrorReply
	if errors.As(err, &er) && er.Code == wire.CodeStaleEpoch {
		return er.Epoch, true
	}
	return 0, false
}
