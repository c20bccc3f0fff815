package magic

// TotalTiles returns the tile count across layers.
func (l *Layout) TotalTiles() int {
	n := 0
	for _, layer := range l.Layers {
		n += len(layer.Rects)
	}
	return n
}
