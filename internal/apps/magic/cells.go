package magic

import "failtrans/internal/apps/apputil"

// Cell is a reusable layout definition — magic's hierarchy primitive. A
// cell has its own layer tile sets; instances place it at an offset in the
// top-level layout. One level of hierarchy is supported (cells cannot
// contain instances), which covers the standard-cell usage pattern.
type Cell struct {
	Name   string
	Layers []Layer
}

// Instance places a cell at an offset in the top-level layout.
type Instance struct {
	Cell   string
	DX, DY int
}

func (l *Layout) cell(name string) *Cell {
	for i := range l.Cells {
		if l.Cells[i].Name == name {
			return &l.Cells[i]
		}
	}
	return nil
}

// cellLayer finds (or creates) a named layer within a cell, mirroring the
// top-level layer names on demand.
func (c *Cell) cellLayer(name string) *Layer {
	for i := range c.Layers {
		if c.Layers[i].Name == name {
			return &c.Layers[i]
		}
	}
	c.Layers = append(c.Layers, Layer{Name: name})
	return &c.Layers[len(c.Layers)-1]
}

// Flatten returns every rectangle on the named layer in the flattened view:
// the top-level tiles plus each instance's cell tiles translated by the
// instance offset.
func (l *Layout) Flatten(layerName string) []Rect {
	var out []Rect
	if top := l.layer(layerName); top != nil {
		out = append(out, top.Rects...)
	}
	for _, inst := range l.Instances {
		c := l.cell(inst.Cell)
		if c == nil {
			continue
		}
		for i := range c.Layers {
			if c.Layers[i].Name != layerName {
				continue
			}
			for _, r := range c.Layers[i].Rects {
				out = append(out, Rect{r.X1 + inst.DX, r.Y1 + inst.DY, r.X2 + inst.DX, r.Y2 + inst.DY})
			}
		}
	}
	return out
}

// FlatDRC runs the min-spacing check over the flattened view of a layer,
// catching violations between instances that per-cell checks cannot see.
func (l *Layout) FlatDRC(layerName string) int {
	return l.spacingViolations(l.Flatten(layerName))
}

// FlatArea sums tile areas in the flattened view (overlaps counted twice,
// as magic's raw area report does before extraction).
func (l *Layout) FlatArea(layerName string) int {
	area := 0
	for _, r := range l.Flatten(layerName) {
		area += r.Area()
	}
	return area
}

// applyCellCommand handles the hierarchy command subset:
//
//	defcell <name>          start (or reopen) a cell definition
//	endcell                 return to top-level editing
//	place <name> <dx> <dy>  instantiate a cell at an offset
//	flatdrc <layer>         DRC over the flattened hierarchy (renders)
//	flatarea <layer>        area over the flattened hierarchy (renders)
//
// It reports whether the command was one of these.
func (l *Layout) applyCellCommand(fields [][]byte) bool {
	switch string(fields[0]) {
	case "defcell":
		if len(fields) != 2 {
			l.LastMsg = append(l.LastMsg[:0], "?defcell <name>"...)
			l.Phase = phaseRender
			return true
		}
		name := string(fields[1])
		if l.cell(name) == nil {
			l.Cells = append(l.Cells, Cell{Name: name})
		}
		l.Editing = name
		return true
	case "endcell":
		l.Editing = ""
		return true
	case "place":
		if len(fields) != 4 {
			l.LastMsg = append(l.LastMsg[:0], "?place <cell> <dx> <dy>"...)
			l.Phase = phaseRender
			return true
		}
		name := string(fields[1])
		if l.cell(name) == nil {
			l.LastMsg = append(l.LastMsg[:0], "?cell "...)
			l.LastMsg = append(l.LastMsg, name...)
			l.Phase = phaseRender
			return true
		}
		dx := int(apputil.ParseInt(fields[2]))
		dy := int(apputil.ParseInt(fields[3]))
		l.Instances = append(l.Instances, Instance{Cell: name, DX: dx, DY: dy})
		return true
	case "flatdrc":
		name := string(field(fields, 1))
		l.LastMsg = appendNamed(l.LastMsg[:0], "flatdrc ", name, l.FlatDRC(name), " violations")
		l.Phase = phaseStamp
		return true
	case "flatarea":
		name := string(field(fields, 1))
		l.LastMsg = appendNamed(l.LastMsg[:0], "flatarea ", name, l.FlatArea(name), "")
		l.Phase = phaseRender
		return true
	}
	return false
}

// marshalCells serializes the hierarchy state.
func (l *Layout) marshalCells(e *apputil.Enc) {
	e.Int(len(l.Cells))
	for _, c := range l.Cells {
		e.Str(c.Name)
		marshalLayers(e, c.Layers)
	}
	e.Int(len(l.Instances))
	for _, in := range l.Instances {
		e.Str(in.Cell)
		e.Int(in.DX)
		e.Int(in.DY)
	}
	e.Str(l.Editing)
}

// unmarshalCells reverses marshalCells; a malformed image leaves its error
// in d.
func (l *Layout) unmarshalCells(d *apputil.Dec) {
	l.Cells = make([]Cell, d.Count(cellBytes))
	for i := range l.Cells {
		l.Cells[i] = Cell{Name: d.Str(), Layers: unmarshalLayers(d)}
	}
	l.Instances = make([]Instance, d.Count(instanceBytes))
	for i := range l.Instances {
		l.Instances[i] = Instance{Cell: d.Str(), DX: d.Int(), DY: d.Int()}
	}
	l.Editing = d.Str()
}
