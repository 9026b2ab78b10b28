package control

import "github.com/erdos-go/erdos/internal/core/comm"

// CommandCodecID identifies control.Command frames on the wire; Command is
// a top-level stream payload (the pipeline's commands stream), so it
// implements comm.FramePayload directly.
const CommandCodecID uint64 = 2

func init() {
	comm.RegisterPayload(Command{})
	comm.RegisterCodec(comm.Codec{
		ID:      CommandCodecID,
		Name:    "control.Command",
		Version: 1,
		Unmarshal: func(body []byte, _ uint8) (any, error) {
			r := comm.ReaderOf(body)
			var c Command
			c.Steer = r.Float64()
			c.Throttle = r.Float64()
			c.Brake = r.Float64()
			return c, r.Err()
		},
	})
}

// FrameCodec implements comm.FramePayload.
func (c Command) FrameCodec() uint64 { return CommandCodecID }

// MarshalFrame appends the command's wire encoding to dst.
func (c Command) MarshalFrame(dst []byte) []byte {
	dst = comm.AppendFloat64(dst, c.Steer)
	dst = comm.AppendFloat64(dst, c.Throttle)
	return comm.AppendFloat64(dst, c.Brake)
}

// MarshalFrame appends the waypoint's wire encoding to dst.
func (w Waypoint) MarshalFrame(dst []byte) []byte {
	dst = comm.AppendFloat64(dst, w.X)
	return comm.AppendFloat64(dst, w.Y)
}

// UnmarshalFrame decodes the fields MarshalFrame wrote.
func (w *Waypoint) UnmarshalFrame(r *comm.FrameReader) {
	w.X = r.Float64()
	w.Y = r.Float64()
}

// GobEncode gives PID a fixed 41-byte wire form — the three gains, then the
// integrator, the last error and whether there is one — so an operator-state
// checkpoint carries the controller's memory, not just its gains. Gob alone
// would drop the unexported fields.
func (p *PID) GobEncode() ([]byte, error) {
	b := make([]byte, 0, 41)
	b = comm.AppendFloat64(b, p.KP)
	b = comm.AppendFloat64(b, p.KI)
	b = comm.AppendFloat64(b, p.KD)
	b = comm.AppendFloat64(b, p.integral)
	b = comm.AppendFloat64(b, p.lastErr)
	return comm.AppendBool(b, p.hasLast), nil
}

// GobDecode restores a PID written by GobEncode.
func (p *PID) GobDecode(b []byte) error {
	r := comm.ReaderOf(b)
	p.KP, p.KI, p.KD = r.Float64(), r.Float64(), r.Float64()
	p.integral, p.lastErr = r.Float64(), r.Float64()
	p.hasLast = r.Bool()
	return r.Err()
}
