package cluster

// JobRecord is one job record as the external tests see it.
type JobRecord struct {
	Name     string
	Worker   *Worker
	Attempts int
}

// JobRecords walks every job record the manager holds.
func (m *Manager) JobRecords() []JobRecord {
	out := make([]JobRecord, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, JobRecord{Name: j.name, Worker: j.worker, Attempts: j.attempts})
	}
	return out
}
