package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// JSONL writes one JSON object per event to an io.Writer (the trace file
// format behind rdlroute -trace). Every line carries the event kind in "ev"
// and the milliseconds since the sink was created in "t_ms"; the remaining
// fields depend on the kind:
//
//	{"t_ms":0.0,"ev":"stage_start","stage":"global"}
//	{"t_ms":9.5,"ev":"stage_end","stage":"global","ms":9.5}
//	{"t_ms":9.6,"ev":"count","name":"global.astar.expansions","delta":1234}
//	{"t_ms":9.6,"ev":"gauge","name":"routability","value":1}
//	{"t_ms":4.2,"ev":"progress","stage":"global","done":3,"total":22}
//
// A mutex serializes writes, so one sink may be shared by every stage of a
// pipeline run, including stages reporting from multiple goroutines.
type JSONL struct {
	mu    sync.Mutex
	w     io.Writer
	enc   *json.Encoder
	now   func() time.Time
	start time.Time
}

// NewJSONL creates a JSON-lines sink over w. The caller owns w and closes
// it after the run.
//
//rdl:allow detrand default trace clock: timestamps only decorate JSONL events, routing state never reads them; tests inject a fake clock
func NewJSONL(w io.Writer) *JSONL { return newJSONL(w, time.Now) }

// newJSONL injects the clock; tests pin it for golden output.
func newJSONL(w io.Writer, now func() time.Time) *JSONL {
	return &JSONL{w: w, enc: json.NewEncoder(w), now: now, start: now()}
}

// event is one trace line. Field order is fixed by this struct and is part
// of the trace format. Delta and Value are pointers so that a count or
// gauge event always carries its number, zero included, while the other
// kinds leave the field out.
type event struct {
	TMs   float64  `json:"t_ms"`
	Ev    string   `json:"ev"`
	Stage string   `json:"stage,omitempty"`
	Name  string   `json:"name,omitempty"`
	Ms    float64  `json:"ms,omitempty"`
	Delta *int64   `json:"delta,omitempty"`
	Value *float64 `json:"value,omitempty"`
	Done  int      `json:"done,omitempty"`
	Total int      `json:"total,omitempty"`
}

func (j *JSONL) emit(e event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	e.TMs = roundMs(j.now().Sub(j.start))
	_ = j.enc.Encode(e) // a broken sink must never abort routing
}

func roundMs(d time.Duration) float64 {
	return float64(d.Microseconds()) / 1000
}

// Enabled implements Recorder.
func (j *JSONL) Enabled() bool { return true }

// StageStart implements Recorder.
func (j *JSONL) StageStart(stage string) {
	j.emit(event{Ev: "stage_start", Stage: stage})
}

// StageEnd implements Recorder.
func (j *JSONL) StageEnd(stage string, d time.Duration) {
	j.emit(event{Ev: "stage_end", Stage: stage, Ms: roundMs(d)})
}

// Count implements Recorder.
func (j *JSONL) Count(name string, delta int64) {
	j.emit(event{Ev: "count", Name: name, Delta: &delta})
}

// Gauge implements Recorder.
func (j *JSONL) Gauge(name string, v float64) {
	j.emit(event{Ev: "gauge", Name: name, Value: &v})
}

// Progress implements Recorder.
func (j *JSONL) Progress(stage string, done, total int) {
	j.emit(event{Ev: "progress", Stage: stage, Done: done, Total: total})
}
