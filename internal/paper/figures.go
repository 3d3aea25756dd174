package paper

import (
	"fmt"
	"math"
	"strings"
	"time"

	"clocksched"
	"clocksched/internal/analysis"
	"clocksched/internal/cpu"
	"clocksched/internal/sim"
)

// Point is one (x, y) sample of a figure's series.
type Point struct {
	X, Y float64
}

// Series is a named curve.
type Series struct {
	Name   string
	XLabel string
	YLabel string
	Points []Point
}

// Render prints the series as aligned columns.
func (s Series) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n# %s\t%s\n", s.Name, s.XLabel, s.YLabel)
	for _, p := range s.Points {
		fmt.Fprintf(&b, "%g\t%g\n", p.X, p.Y)
	}
	return b.String()
}

// Sparkline draws a coarse text plot of the series, banded into rows.
func (s Series) Sparkline(width int) string {
	if len(s.Points) == 0 || width < 1 {
		return ""
	}
	marks := []rune("▁▂▃▄▅▆▇█")
	minY, maxY := s.Points[0].Y, s.Points[0].Y
	for _, p := range s.Points {
		minY = math.Min(minY, p.Y)
		maxY = math.Max(maxY, p.Y)
	}
	span := maxY - minY
	var b strings.Builder
	step := float64(len(s.Points)) / float64(width)
	if step < 1 {
		step = 1
	}
	for i := 0; i < width && int(float64(i)*step) < len(s.Points); i++ {
		y := s.Points[int(float64(i)*step)].Y
		idx := 0
		if span > 0 {
			idx = int((y - minY) / span * float64(len(marks)-1))
		}
		b.WriteRune(marks[idx])
	}
	return b.String()
}

// FigureWorkloads lists the four applications of Figures 3 and 4 by their
// workload names.
var FigureWorkloads = []string{"mpeg", "web", "chess", "editor"}

// figureTitles maps FigureWorkloads to the display names in the panel
// titles.
var figureTitles = map[string]string{"mpeg": "MPEG", "web": "Web", "chess": "Chess", "editor": "TalkingEditor"}

// figurePanelConfig is one Figure 3/4 panel cell: the named workload at
// constant 206.4 MHz for 40 s, with the utilization trace retained.
// Figures 3 and 4 share the cell — and therefore its cache entry.
func figurePanelConfig(workloadName string, seed uint64) clocksched.Config {
	return clocksched.Config{
		Workload:     clocksched.Workload(workloadName),
		Seed:         seed,
		Duration:     40 * time.Second,
		CaptureTrace: true,
	}
}

// figure3Series shapes a panel cell into the Figure 3 series.
func figure3Series(workloadName string, r *clocksched.Result) Series {
	s := Series{
		Name:   fmt.Sprintf("Figure 3: %s utilization, 10ms quanta, 206.4MHz", figureTitles[workloadName]),
		XLabel: "time (microseconds)",
		YLabel: "utilization",
	}
	for u := range r.TraceSeq() {
		s.Points = append(s.Points, Point{X: float64(u.At / time.Microsecond), Y: u.Utilization})
	}
	return s
}

// Figure3 reproduces one panel of Figure 3: per-10 ms-quantum processor
// utilization over a 30–40 s window of the named workload at 206.4 MHz.
func Figure3(workloadName string, seed uint64) (Series, error) {
	res, err := DefaultEnv(seed).sweep(clocksched.SweepConfig{
		Cells: []clocksched.Config{figurePanelConfig(workloadName, seed)},
	})
	if err != nil {
		return Series{}, err
	}
	return figure3Series(workloadName, res.Cells[0].Result), nil
}

// Figure3Panels reproduces all four Figure 3 panels through the
// environment's executor.
func Figure3Panels(env Env) ([]Series, error) {
	grid := make([]clocksched.Config, len(FigureWorkloads))
	for i, w := range FigureWorkloads {
		grid[i] = figurePanelConfig(w, env.Seed)
	}
	res, err := env.sweep(clocksched.SweepConfig{Cells: grid})
	if err != nil {
		return nil, err
	}
	out := make([]Series, len(res.Cells))
	for i, c := range res.Cells {
		out[i] = figure3Series(FigureWorkloads[i], c.Result)
	}
	return out, nil
}

// figure4Series smooths one Figure 3 series with the 100 ms moving average
// (10 quanta) to produce the matching Figure 4 panel.
func figure4Series(workloadName string, raw Series) (Series, error) {
	ys := make([]float64, len(raw.Points))
	for i, p := range raw.Points {
		ys[i] = p.Y
	}
	ma, err := analysis.MovingAverage(ys, 10)
	if err != nil {
		return Series{}, err
	}
	s := Series{
		Name:   fmt.Sprintf("Figure 4: %s utilization, 100ms moving average, 206.4MHz", workloadName),
		XLabel: raw.XLabel,
		YLabel: "utilization (100ms MA)",
	}
	for i, p := range raw.Points {
		s.Points = append(s.Points, Point{X: p.X, Y: ma[i]})
	}
	return s, nil
}

// Figure4 reproduces one panel of Figure 4: the same utilization series
// smoothed with a 100 ms moving average (10 quanta).
func Figure4(workloadName string, seed uint64) (Series, error) {
	raw, err := Figure3(workloadName, seed)
	if err != nil {
		return Series{}, err
	}
	return figure4Series(workloadName, raw)
}

// Figure4Panels smooths all four Figure 3 panels; because the panel cells
// are shared (and cached) with Figure 3, running both figures costs four
// simulations, not eight.
func Figure4Panels(env Env) ([]Series, error) {
	raws, err := Figure3Panels(env)
	if err != nil {
		return nil, err
	}
	out := make([]Series, len(raws))
	for i, raw := range raws {
		out[i], err = figure4Series(FigureWorkloads[i], raw)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Figure5Row is one scheduling interval of the Figure 5 worked example: the
// contents of the four-quantum window, the resulting average demand in MHz,
// and the speed the naive policy selects.
type Figure5Row struct {
	Interval int
	// Window holds the last four quanta as "MHz/busy" pairs, oldest
	// first, exactly like the figure's boxes.
	Window [4]string
	AvgMHz float64
	Speed  cpu.Step
}

// Figure5Result holds both scenarios of the worked example.
type Figure5Result struct {
	GoingIdle  []Figure5Row
	SpeedingUp []Figure5Row
}

// Figure5 reproduces the worked example showing why averaging non-idle
// instructions over four quanta makes a poor speed-setting policy: scaling
// down is quick, scaling back up is very slow.
func Figure5() Figure5Result {
	type quantum struct {
		mhz  float64
		busy int
	}
	simulate := func(window [4]quantum, incomingBusy int, steps int) []Figure5Row {
		var rows []Figure5Row
		w := window
		for i := 0; i < steps; i++ {
			// Average non-idle instruction rate over the window, in MHz.
			sum := 0.0
			for _, q := range w {
				sum += q.mhz * float64(q.busy)
			}
			avg := sum / 4
			speed := cpu.StepForKHz(int64(avg * 1000))
			row := Figure5Row{Interval: i, AvgMHz: avg, Speed: speed}
			for j, q := range w {
				row.Window[j] = fmt.Sprintf("%.1f/%d", q.mhz, q.busy)
			}
			rows = append(rows, row)
			// Shift in the next quantum at the selected speed.
			copy(w[:], w[1:])
			w[3] = quantum{mhz: speed.MHz(), busy: incomingBusy}
		}
		return rows
	}
	busyWindow := [4]quantum{{206.4, 1}, {206.4, 1}, {206.4, 1}, {206.4, 1}}
	idleWindow := [4]quantum{{59.0, 0}, {59.0, 0}, {59.0, 0}, {59.0, 0}}
	return Figure5Result{
		GoingIdle:  simulate(busyWindow, 0, 5),
		SpeedingUp: simulate(idleWindow, 1, 5),
	}
}

// Render prints the example in the figure's box style.
func (f Figure5Result) Render() string {
	var b strings.Builder
	write := func(title string, rows []Figure5Row) {
		fmt.Fprintf(&b, "%s\n", title)
		for _, r := range rows {
			fmt.Fprintf(&b, "  [%s] Avg = %.4g MHz, Speed = %s\n",
				strings.Join(r.Window[:], " "), r.AvgMHz, r.Speed)
		}
	}
	write("Figure 5(a): Going to idle", f.GoingIdle)
	write("Figure 5(b): Speeding up", f.SpeedingUp)
	return b.String()
}

// Figure6 reproduces the Fourier-transform magnitude of the decaying
// exponential weighting function, |X(ω)| = 1/√(ω²+α²), over ω ∈ [0, 15]
// with the paper's 0.5 grid, for the AVG_N-equivalent decay rate.
func Figure6(n int) (Series, error) {
	alpha, err := analysis.AlphaForAvgN(n)
	if err != nil {
		return Series{}, err
	}
	s := Series{
		Name:   fmt.Sprintf("Figure 6: |X(ω)| of decaying exponential (AVG_%d, α=%.4f)", n, alpha),
		XLabel: "ω (rad/quantum)",
		YLabel: "|X(ω)|",
	}
	for w := 0.0; w <= 15.0001; w += 0.5 {
		m, err := analysis.ExpDecayTransformMag(alpha, w)
		if err != nil {
			return Series{}, err
		}
		s.Points = append(s.Points, Point{X: w, Y: m})
	}
	return s, nil
}

// Figure7 reproduces the AVG_3 filtering of the periodic 9-busy/1-idle
// workload over 800 quanta, showing the oscillation that never settles.
// It also reports the steady-state oscillation measurement.
func Figure7() (Series, analysis.Oscillation, error) {
	wave, err := analysis.RectWave(9, 1, 800)
	if err != nil {
		return Series{}, analysis.Oscillation{}, err
	}
	filtered, err := analysis.ExpDecayFilter(wave, 3, 0.9)
	if err != nil {
		return Series{}, analysis.Oscillation{}, err
	}
	s := Series{
		Name:   "Figure 7: AVG_3 filtered utilization of 9-busy/1-idle wave",
		XLabel: "quantum",
		YLabel: "weighted utilization",
	}
	for i, y := range filtered {
		s.Points = append(s.Points, Point{X: float64(i), Y: y})
	}
	osc, err := analysis.MeasureOscillation(filtered, 400)
	return s, osc, err
}

// Figure8 reproduces the clock-frequency timeline of the MPEG application
// under the best policy the paper found: PAST with peg-peg speed setting
// and 93%/98% thresholds. The series shows the policy slamming between
// 59 MHz and 206.4 MHz, "changing clock settings frequently".
func Figure8(env Env) (Series, *clocksched.Result, error) {
	res, err := env.sweep(clocksched.SweepConfig{Cells: []clocksched.Config{{
		Workload:     clocksched.MPEG,
		Policy:       pastPegPeg(false),
		Seed:         env.Seed,
		Duration:     30 * time.Second,
		CaptureTrace: true,
	}}})
	if err != nil {
		return Series{}, nil, err
	}
	r := res.Cells[0].Result
	s := Series{
		Name:   "Figure 8: MPEG clock frequency under PAST, peg-peg, 93%-98%",
		XLabel: "time (s)",
		YLabel: "clock (MHz)",
	}
	for u := range r.TraceSeq() {
		s.Points = append(s.Points, Point{X: sim.Duration(u.At / time.Microsecond).Seconds(), Y: u.MHz})
	}
	return s, r, nil
}

// Figure9 reproduces utilization vs clock frequency for MPEG across all
// eleven clock steps, exposing the non-linear plateau between 162.2 and
// 176.9 MHz caused by the Table 3 memory timing.
func Figure9(seed uint64) (Series, error) {
	return Figure9Env(DefaultEnv(seed))
}

// Figure9Env runs the eleven constant-speed cells of Figure 9 through the
// environment's executor.
func Figure9Env(env Env) (Series, error) {
	grid := clocksched.SweepConfig{
		Workloads: []clocksched.Workload{clocksched.MPEG},
		Seeds:     []uint64{env.Seed},
		Duration:  20 * time.Second,
	}
	for _, mhz := range clocksched.ClockStepsMHz() {
		grid.Policies = append(grid.Policies, clocksched.Policy{Constant: true, MHz: mhz})
	}
	res, err := env.sweep(grid)
	if err != nil {
		return Series{}, err
	}
	s := Series{
		Name:   "Figure 9: MPEG processor utilization vs clock frequency",
		XLabel: "clock (MHz)",
		YLabel: "utilization (%)",
	}
	for i, c := range res.Cells {
		s.Points = append(s.Points, Point{X: grid.Policies[i].MHz, Y: c.Result.MeanUtilization * 100})
	}
	return s, nil
}
