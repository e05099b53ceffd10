package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/daemon"
	"repro/internal/kernel"
)

// Table3Row is one configuration of the kernel-compile macro-benchmark:
// elapsed real, user, and sys time as the time(1) utility reports them.
type Table3Row struct {
	Config daemon.Tracer
	Real   time.Duration
	User   time.Duration
	Sys    time.Duration
	// Paper values for the report.
	PaperReal time.Duration
	PaperUser time.Duration
	PaperSys  time.Duration
}

// Table3Result is the kernel-compile table.
type Table3Result struct {
	Rows []Table3Row
	// SysSlowdownFmeter and SysSlowdownFtrace are the sys-time slowdowns
	// the paper quotes in prose (~22% and ~420%).
	SysSlowdownFmeter float64
	SysSlowdownFtrace float64
}

// Table 3 parameters. The paper's compile is essentially sequential
// (user 47m50s within real 57m09s): real = user + sys + I/O wait.
const (
	// table3Units approximates the number of compilation units in a full
	// 2.6.28 build at the catalog's per-unit kernel cost.
	table3Units = 114000
	// table3UserPerUnit is gcc's user-mode time per unit.
	table3UserPerUnit = 25170 * time.Microsecond
	// table3IOWait is the constant I/O stall not overlapped with CPU.
	table3IOWait = 80 * time.Second
)

var table3Paper = map[daemon.Tracer]struct{ real, user, sys time.Duration }{
	daemon.Vanilla: {57*time.Minute + 8961*time.Millisecond, 47*time.Minute + 50175*time.Millisecond, 7*time.Minute + 59642*time.Millisecond},
	daemon.Ftrace:  {89*time.Minute + 56821*time.Millisecond, 49*time.Minute + 5492*time.Millisecond, 41*time.Minute + 31300*time.Millisecond},
	daemon.Fmeter:  {56*time.Minute + 43264*time.Millisecond, 46*time.Minute + 24890*time.Millisecond, 9*time.Minute + 45817*time.Millisecond},
}

// RunTable3 compiles the simulated kernel under each configuration. User
// time is uninstrumented and constant; sys time grows with the tracer's
// per-call overhead over the compile's ~3.5e10 kernel function calls.
func RunTable3(seed int64) (*Table3Result, error) {
	res := &Table3Result{}
	for _, tracer := range []daemon.Tracer{daemon.Vanilla, daemon.Ftrace, daemon.Fmeter} {
		sys, err := daemon.Boot(tracer, seed)
		if err != nil {
			return nil, err
		}
		op, err := sys.Cat.Op(kernel.OpCompileUnit)
		if err != nil {
			return nil, err
		}
		if _, err := sys.Eng.ExecOp(op, table3Units); err != nil {
			return nil, err
		}
		if err := sys.Eng.RecordUser(0, table3Units*table3UserPerUnit); err != nil {
			return nil, err
		}
		sysTime := sys.Eng.KernelTime()
		userTime := sys.Eng.UserTime()
		paper := table3Paper[tracer]
		res.Rows = append(res.Rows, Table3Row{
			Config:    tracer,
			Real:      userTime + sysTime + table3IOWait,
			User:      userTime,
			Sys:       sysTime,
			PaperReal: paper.real,
			PaperUser: paper.user,
			PaperSys:  paper.sys,
		})
	}
	base := res.Rows[0].Sys
	if base <= 0 {
		return nil, fmt.Errorf("experiments: zero vanilla sys time")
	}
	for _, row := range res.Rows {
		slow := float64(row.Sys)/float64(base) - 1
		switch row.Config {
		case daemon.Fmeter:
			res.SysSlowdownFmeter = slow
		case daemon.Ftrace:
			res.SysSlowdownFtrace = slow
		}
	}
	return res, nil
}

// fmtDur renders a duration like time(1): "57m8.961s".
func fmtDur(d time.Duration) string {
	m := int(d / time.Minute)
	s := d - time.Duration(m)*time.Minute
	return fmt.Sprintf("%dm%.3fs", m, s.Seconds())
}

// Render prints the table in the paper's layout.
func (r *Table3Result) Render() string {
	var b strings.Builder
	b.WriteString("Table 3: Linux kernel compile elapsed time\n")
	widths := []int{10, 14, 14, 14, 14, 14, 14}
	renderRow(&b, widths, "Config", "real", "user", "sys", "paper real", "paper user", "paper sys")
	for _, row := range r.Rows {
		renderRow(&b, widths,
			row.Config.String(),
			fmtDur(row.Real), fmtDur(row.User), fmtDur(row.Sys),
			fmtDur(row.PaperReal), fmtDur(row.PaperUser), fmtDur(row.PaperSys),
		)
	}
	fmt.Fprintf(&b, "sys slowdown: fmeter %.0f%%, ftrace %.0f%% (paper: ~22%%, ~420%%)\n",
		100*r.SysSlowdownFmeter, 100*r.SysSlowdownFtrace)
	return b.String()
}
