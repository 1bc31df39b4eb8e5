package traffic

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// csvHeader is the column layout WriteCSV writes.
var csvHeader = []string{"name", "alpha", "theta_hat", "v", "phi", "beta"}

// WriteCSV serializes a population to CSV with one row per CP. Only
// populations whose demand curves are the paper's exponential family can be
// serialized, because β is the curve's full parameterization; other families
// produce an error.
func WriteCSV(w io.Writer, p Population) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("traffic: writing CSV header: %w", err)
	}
	for i := range p {
		beta, ok := p[i].Beta()
		if !ok {
			return fmt.Errorf("traffic: CP %q uses non-exponential demand %s; not CSV-serializable", p[i].Name, p[i].Curve.Name())
		}
		row := []string{
			p[i].Name,
			formatFloat(p[i].Alpha),
			formatFloat(p[i].ThetaHat),
			formatFloat(p[i].V),
			formatFloat(p[i].Phi),
			formatFloat(beta),
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("traffic: writing CSV row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', 17, 64)
}
