package server

import "lightator/internal/sensor"

// PoolScene puts a scene in the scene pool and PooledScene takes one out
// (nil when the pool is empty), so the external tests can watch the
// pool across whole requests.
func PoolScene(im *sensor.Image) { putScene(im) }

func PooledScene() *sensor.Image {
	im, _ := scenePool.Get().(*sensor.Image)
	return im
}
