package workload

// ArrivalStream is a pull iterator over a submission schedule in arrival
// order — the lazy counterpart of []Submission, in the shape of Go's
// iter.Pull. Next yields submissions with non-decreasing At until the
// stream is exhausted or fails; after it returns ok=false, Err
// distinguishes a clean end (nil) from a broken source (trace parse
// errors, ordering violations). Streams are single-use: once drained they
// stay drained, so anything holding one — a Spec, a recorder — consumes
// it exactly once.
type ArrivalStream interface {
	Next() (Submission, bool)
	Err() error
}

// SliceStream adapts a materialized schedule to the streaming interface.
func SliceStream(subs []Submission) ArrivalStream {
	return &sliceStream{subs: subs}
}

type sliceStream struct {
	subs []Submission
	i    int
}

func (s *sliceStream) Next() (Submission, bool) {
	if s.i >= len(s.subs) {
		return Submission{}, false
	}
	sub := s.subs[s.i]
	s.i++
	return sub, true
}

func (s *sliceStream) Err() error { return nil }

// Collect drains a stream into a materialized schedule. On a stream
// error the partial schedule is discarded.
func Collect(s ArrivalStream) ([]Submission, error) {
	var subs []Submission
	for sub, ok := s.Next(); ok; sub, ok = s.Next() {
		subs = append(subs, sub)
	}
	if err := s.Err(); err != nil {
		return nil, err
	}
	return subs, nil
}
