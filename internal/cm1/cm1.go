// Package cm1 is a proxy for the CM1 atmospheric model (Bryan & Fritsch
// 2002) used by the paper's evaluation: a 3-D moist thermodynamic field
// set (potential temperature θ, water vapor qv, winds u/v/w) advanced by
// upwind advection, diffusion and a buoyancy update on one core's
// periodic grid.
//
// Like the real CM1, it is bulk-synchronous with very predictable
// compute phases, and every core periodically outputs all of its fields
// — the workload that drives experiments E1–E5. Several cores are
// several independent models.
package cm1

import (
	"fmt"
	"math"

	"repro/internal/insitu"
)

// Params configures the proxy.
type Params struct {
	// Grid size per core.
	NX, NY, NZ int
	// DX is the grid spacing, DT the time step (CFL: U*DT/DX < 1).
	DX, DT float64
	// U is the constant zonal advection wind.
	U float64
	// Nu is the diffusion coefficient.
	Nu float64
	// ThetaRef is the reference potential temperature (K).
	ThetaRef float64
}

// DefaultParams returns a stable small configuration.
func DefaultParams() Params {
	return Params{NX: 16, NY: 16, NZ: 12, DX: 1, DT: 0.2, U: 1, Nu: 0.05, ThetaRef: 300}
}

// Validate checks grid and stability constraints.
func (p Params) Validate() error {
	if p.NX < 3 || p.NY < 3 || p.NZ < 3 {
		return fmt.Errorf("cm1: grid %dx%dx%d too small", p.NX, p.NY, p.NZ)
	}
	if p.DT <= 0 || p.DX <= 0 {
		return fmt.Errorf("cm1: non-positive DT/DX")
	}
	if cfl := p.U * p.DT / p.DX; cfl >= 1 {
		return fmt.Errorf("cm1: CFL %v >= 1, unstable", cfl)
	}
	if 6*p.Nu*p.DT/(p.DX*p.DX) >= 1 {
		return fmt.Errorf("cm1: diffusion number too large")
	}
	return nil
}

// Model is one core's simulation.
type Model struct {
	P Params

	theta, qv, w insitu.Field
	scratch      []float64
	step         int
}

// New initializes the model with a warm bubble centered in the domain
// and a moisture layer.
func New(p Params) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m := &Model{
		P:       p,
		theta:   insitu.NewField("theta", p.NZ, p.NY, p.NX),
		qv:      insitu.NewField("qv", p.NZ, p.NY, p.NX),
		w:       insitu.NewField("w", p.NZ, p.NY, p.NX),
		scratch: make([]float64, p.NZ*p.NY*p.NX),
	}
	cx := float64(p.NX)/2 - 0.5
	cy := float64(p.NY)/2 - 0.5
	cz := float64(p.NZ)/3 - 0.5
	radius := float64(min(p.NX, p.NY, p.NZ)) / 4
	for k := 0; k < p.NZ; k++ {
		for j := 0; j < p.NY; j++ {
			for i := 0; i < p.NX; i++ {
				d := math.Sqrt(sq(float64(i)-cx)+sq(float64(j)-cy)+sq(float64(k)-cz)) / radius
				// Warm bubble: +2 K perturbation with cosine falloff.
				pert := 0.0
				if d < 1 {
					pert = 2 * sq(math.Cos(math.Pi*d/2))
				}
				m.theta.Set(k, j, i, p.ThetaRef+pert)
				// Moisture decays with height.
				m.qv.Set(k, j, i, 0.014*math.Exp(-float64(k)/float64(p.NZ)*3))
			}
		}
	}
	return m, nil
}

func sq(x float64) float64 { return x * x }

// Step advances the model one time step: upwind x-advection plus
// diffusion of θ and qv, then the buoyancy update of w.
func (m *Model) Step() {
	m.advectDiffuse(&m.theta)
	m.advectDiffuse(&m.qv)
	m.buoyancy()
	m.step++
}

// Iteration returns the number of completed steps.
func (m *Model) Iteration() int { return m.step }

// advectDiffuse applies upwind x-advection by U and a 3-D Laplacian
// diffusion, periodic in every dimension.
func (m *Model) advectDiffuse(f *insitu.Field) {
	p := m.P
	cAdv := p.U * p.DT / p.DX
	cDif := p.Nu * p.DT / (p.DX * p.DX)
	at := func(k, j, i int) float64 {
		return f.At((k+p.NZ)%p.NZ, (j+p.NY)%p.NY, (i+p.NX)%p.NX)
	}
	for k := 0; k < p.NZ; k++ {
		for j := 0; j < p.NY; j++ {
			for i := 0; i < p.NX; i++ {
				c := f.At(k, j, i)
				upwind := c - at(k, j, i-1)
				lap := at(k, j, i-1) + at(k, j, i+1) +
					at(k, j-1, i) + at(k, j+1, i) +
					at(k-1, j, i) + at(k+1, j, i) - 6*c
				m.scratch[(k*p.NY+j)*p.NX+i] = c - cAdv*upwind + cDif*lap
			}
		}
	}
	copy(f.Data, m.scratch)
}

// buoyancy updates w from the θ anomaly (diagnostic vertical motion;
// it does not feed back into θ so that mass conservation stays exactly
// testable).
func (m *Model) buoyancy() {
	const g = 9.81
	p := m.P
	for idx, th := range m.theta.Data {
		m.w.Data[idx] += p.DT * g * (th - p.ThetaRef) / p.ThetaRef
	}
}

// Fields returns the model's output variables in a stable order.
func (m *Model) Fields() []insitu.Field {
	return []insitu.Field{m.theta, m.qv, m.w}
}

// Theta exposes the temperature field (analysis, tests).
func (m *Model) Theta() insitu.Field { return m.theta }

// Mass returns the sum of θ (a conserved quantity under periodic
// advection-diffusion).
func (m *Model) Mass() float64 {
	sum := 0.0
	for _, v := range m.theta.Data {
		sum += v
	}
	return sum
}

// Checksum folds every field into one float for determinism tests.
func (m *Model) Checksum() float64 {
	sum := 0.0
	for _, f := range m.Fields() {
		for i, v := range f.Data {
			sum += v * float64(i%97+1)
		}
	}
	return sum
}
