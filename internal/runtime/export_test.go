package runtime

import "genie/internal/nn"

// LocalKV exposes an in-process session's client-held KV caches to the
// external tests.
func (s *Session) LocalKV() []*nn.KVCache { return s.caches }
