package core

import (
	"encoding/json"
	"io"

	"latsim/internal/stats"
)

// jsonBar is the serialized form of one stacked bar.
type jsonBar struct {
	Label string             `json:"label"`
	Total float64            `json:"total"`
	Pct   map[string]float64 `json:"pct"`
}

// jsonFigure is the serialized form of a figure.
type jsonFigure struct {
	ID    string               `json:"id"`
	Title string               `json:"title"`
	Apps  []string             `json:"apps"`
	Bars  map[string][]jsonBar `json:"bars"`
}

// JSON serializes the figure for downstream plotting tools: bucket
// percentages are keyed by bucket name and zero buckets are omitted.
func (f *Figure) JSON() ([]byte, error) {
	out := jsonFigure{ID: f.ID, Title: f.Title, Apps: f.Apps, Bars: map[string][]jsonBar{}}
	for app, bars := range f.Bars {
		for _, b := range bars {
			jb := jsonBar{Label: b.Label, Total: b.Total, Pct: map[string]float64{}}
			for i := stats.Bucket(0); i < stats.NumBuckets; i++ {
				if b.Pct[i] != 0 {
					jb.Pct[i.String()] = b.Pct[i]
				}
			}
			out.Bars[app] = append(out.Bars[app], jb)
		}
	}
	return json.MarshalIndent(out, "", "  ")
}

// writeJSON writes v as one indented JSON document and a newline.
func writeJSON(w io.Writer, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}
