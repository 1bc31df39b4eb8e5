package traffic

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"github.com/netecon-sim/publicoption/internal/demand"
)

// ReadCSV parses a population previously written by WriteCSV and validates
// every CP.
func ReadCSV(r io.Reader) (Population, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(csvHeader)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("traffic: reading CSV header: %w", err)
	}
	for i, want := range csvHeader {
		if header[i] != want {
			return nil, fmt.Errorf("traffic: CSV column %d is %q, want %q", i, header[i], want)
		}
	}
	var pop Population
	for line := 2; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("traffic: reading CSV line %d: %w", line, err)
		}
		vals := make([]float64, 5)
		for i := 0; i < 5; i++ {
			v, err := strconv.ParseFloat(row[i+1], 64)
			if err != nil {
				return nil, fmt.Errorf("traffic: CSV line %d column %s: %w", line, csvHeader[i+1], err)
			}
			vals[i] = v
		}
		cp := CP{
			Name:     row[0],
			Alpha:    vals[0],
			ThetaHat: vals[1],
			V:        vals[2],
			Phi:      vals[3],
			Curve:    demand.Exponential{Beta: vals[4]},
		}
		if err := cp.Validate(); err != nil {
			return nil, fmt.Errorf("traffic: CSV line %d: %w", line, err)
		}
		pop = append(pop, cp)
	}
	return pop, nil
}
